package mnt

import (
	"testing"

	"repro/internal/block"
	"repro/internal/ninep"
	"repro/internal/ns"
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

// TestAllocsCat: a cat of a 4 KiB file two levels below a serial mount,
// as bench's lan-cat does it (ns.ReadFile: Tclwalk twice, Tstat,
// Tclone, Topen, Tread twice, Tclunk), allocates what it keeps and
// little else: 12 objects. The client's are five: a node per walk with
// its fid inline, one string for the stat record's four names, the
// handle (no FD), and the result. The server's are seven: three srvFids
// (the two walked ones, never clunked, and the clone), the two walked
// names, the clone's ticket queue and ramfs's open handle. A fid beside
// its node or handle, a string per stat name or an FD per open fails
// here.
func TestAllocsCat(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const want = 12
	onMount(t, Config{}, func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		fs.WriteFile("data/f", testPattern(4096), 0664)
		nsp := ns.New("glenda", ramfs.NewClock("glenda", v).Root())
		if err := nsp.MountNode(root, "/n/bootes", ns.MREPL); err != nil {
			t.Error(err)
			return
		}
		cat := func() {
			if b, err := nsp.ReadFile("/n/bootes/data/f"); err != nil || len(b) != 4096 {
				t.Errorf("cat = %d bytes, %v", len(b), err)
			}
		}
		cat()
		allocs := testing.AllocsPerRun(100, cat)
		t.Logf("cat of 4 KiB through a serial mount: %.2f allocs/op", allocs)
		if allocs > want {
			t.Errorf("a cat allocates %.2f objects, want %d", allocs, want)
		}
	})
}
