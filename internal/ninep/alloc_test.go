package ninep

import (
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// The block-discipline gates for 9P: one Rread, or one Twrite, round
// trip over an in-process pipe. Request and response travel as
// pool-backed buffers whose ownership crosses the pipe, and the data
// of an Rread or Twrite is decoded in place, its wire buffer adopted as
// the block the reply or request owns, so marshal, transport and decode
// allocate no buffers and copy no data out. The one object a side an
// RPC needs, the client's Pending (the reply and its waiter live in
// it) and the server's srvReq (request and reply Fcalls, and the
// escalated request's goroutine takes it from a queue rather than a
// closure), is a finished one reused, so a round trip allocates
// nothing at all.
func TestAllocsRreadRoundTrip(t *testing.T) {
	allocs := roundTripAllocs(t, vfs.OREAD, func(f *Fid, buf []byte) (int, error) { return f.Read(buf, 0) })
	t.Logf("Rread(4K) round trip: %.1f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("Rread round trip allocates %.1f objects/op, want 0 (a Pending or srvReq not reused, a data copy, a pool bypassed, or a per-message Fcall, mailbox or closure back?)", allocs)
	}
}

func TestAllocsTwriteRoundTrip(t *testing.T) {
	allocs := roundTripAllocs(t, vfs.OWRITE, func(f *Fid, buf []byte) (int, error) { return f.Write(buf, 0) })
	t.Logf("Twrite(4K) round trip: %.1f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("Twrite round trip allocates %.1f objects/op, want 0 (a Pending or srvReq not reused, a data copy, a pool bypassed, or a per-message Fcall, mailbox or closure back?)", allocs)
	}
}

// roundTripAllocs opens a 4 KiB ramfs file in mode and reports the
// allocations of one op on it with a 4 KiB buffer.
func roundTripAllocs(t *testing.T, mode int, op func(f *Fid, buf []byte) (int, error)) float64 {
	t.Helper()
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var fs *ramfs.FS
	root := func(ck vclock.Clock) vfs.Node {
		fs = ramfs.NewClock("srv", ck)
		fs.WriteFile("f", make([]byte, 4096), 0664)
		return fs.Root()
	}
	var allocs float64
	onTapped(t, root, ClientConfig{}, nil, func(_ *vclock.Virtual, cl *Client, _ *countingConn) {
		root, err := cl.Attach("u", "")
		if err != nil {
			t.Error(err)
			return
		}
		f, err := root.CloneWalk("f")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Open(mode); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := op(&f, buf); err != nil {
				t.Error(err)
			}
		})
	})
	return allocs
}

// A walked fid lives until its connection closes (the mount driver
// clunks none), so every byte of srvFid is paid a couple of times per
// operation. The
// ticket queues are pointers made by the first request that queues:
// inline in the struct they cost 256 bytes a fid.
func TestSrvFidIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(srvFid{}); n > 96 {
		t.Fatalf("srvFid is %d bytes, want <= 96", n)
	}
}
