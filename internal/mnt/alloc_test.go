package mnt

import (
	"testing"

	"repro/internal/block"
	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// TestAllocsWriteBehind: a sequential 64 KiB write through a file-tree
// handle allocates nothing. Its whole fragments go out from the
// caller's buffer, copied once into their wire buffers, and each
// Twrite's RPC reuses a finished Pending and srvReq. A write-behind
// that copies into a buffer of its own, or an RPC that allocates its
// objects again, fails here.
func TestAllocsWriteBehind(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const size, runs = 8 * ninep.MaxFData, 20
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		// The file is as long as every run writes, so the server
		// overwrites in place and grows nothing.
		fs.WriteFile("f", make([]byte, (runs+2)*size), 0664)
		h := openPath(t, root, "f", vfs.OWRITE)
		if h == nil {
			return
		}
		defer h.Close()
		buf := testPattern(size)
		off := int64(0)
		write := func() {
			if n, err := h.Write(buf, off); err != nil || n != size {
				t.Errorf("write at %d = %d, %v", off, n, err)
			}
			off += size
		}
		write() // the first write on a handle is synchronous
		allocs := testing.AllocsPerRun(runs, write)
		t.Logf("sequential 64 KiB write behind: %.2f allocs/op", allocs)
		if allocs > 0 {
			t.Errorf("a sequential 64 KiB write allocates %.2f objects, want 0 (a write-behind copy, or a Pending or srvReq not reused?)", allocs)
		}
	})
}
