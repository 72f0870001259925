package exportfs_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/mnt"
	"repro/internal/ns"
	"repro/internal/vclock"
)

// maxImportObjects bounds the objects of one import, both ends
// together: the Datakit call, its circuit and two URP ends, the 9P
// client and the server's tenancy, the mount, the walk and the read's
// 64 KiB result. A circuit built as two pipes with mailboxes and
// closures, a URP window grown by append, or a 9P client that makes
// its stats group and its first Pendings afresh, puts an import back
// at 207.
const maxImportObjects = 104

// TestAllocsImport: the per-import gate, §6.1's gateway round as the
// gateway-relay benchmark runs it. On the virtual clock philw's gnot, a
// Datakit-only terminal, imports helix's /lib/bench as a file tree,
// reads a 64 KiB file through it, unmounts, and lets a simulated second
// pass for both ends to let go of the call. The gate reads
// runtime.MemStats' Mallocs across twenty imports after three to warm
// the pools and helix's cache.
func TestAllocsImport(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if err := vclock.Simulate(func(ck vclock.Clock) error {
		w, err := core.PaperWorld(core.FastProfiles(), ck)
		if err != nil {
			return err
		}
		defer w.Close()
		helix, gnot := w.Machine("helix"), w.Machine("philw-gnot")
		want := bytes.Repeat([]byte("import!"), 64<<10/7+1)[:64<<10]
		if err := helix.Root.MkdirAll("lib/bench", 0775); err != nil {
			return err
		}
		if err := helix.Root.WriteFile("lib/bench/f", want, 0444); err != nil {
			return err
		}
		imp := func() error {
			cl, err := gnot.ImportConfig("dk!nj/astro/helix!exportfs", "/lib/bench", "/n/gw", ns.MREPL, mnt.FileConfig())
			if err != nil {
				return err
			}
			got, err := gnot.NS.ReadFile("/n/gw/f")
			gnot.NS.Unmount("/n/gw")
			cl.Close()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("read %d bytes that differ from the file", len(got))
			}
			ck.Sleep(time.Second)
			return nil
		}
		for range 3 {
			if err := imp(); err != nil {
				return err
			}
		}
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			if err := imp(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		objs := (after.Mallocs - before.Mallocs) / n
		t.Logf("an import: %d objects, %d bytes", objs, (after.TotalAlloc-before.TotalAlloc)/n)
		if objs > maxImportObjects {
			return fmt.Errorf("an import allocates %d objects, want <= %d", objs, maxImportObjects)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}
