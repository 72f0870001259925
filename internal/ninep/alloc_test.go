package ninep

import (
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// The block-discipline gate for 9P: one Rread round-trip over an
// in-process pipe. Request and response travel as pool-backed buffers
// whose ownership crosses the pipe, so marshal, transport and decode
// allocate no buffers. What is left is one object a side and the data:
// the client's Pending (the reply and its waiter live in it), the
// server's srvReq (request and reply Fcalls, and the escalated
// request's goroutine takes it from a queue rather than a closure), and
// the copy of the Rread's data the client hands its caller.
func TestAllocsRreadRoundTrip(t *testing.T) {
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
		if err := f.Open(vfs.OREAD); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := f.Read(buf, 0); err != nil {
				t.Error(err)
			}
		})
	})
	t.Logf("Rread(4K) round trip: %.1f allocs/op", allocs)
	if allocs > 3 {
		t.Fatalf("Rread round trip allocates %.1f objects/op, want <= 3 (a pool bypassed, or a per-message Fcall, mailbox or closure back?)", allocs)
	}
}

// Under a virtual clock a walked fid lives until its connection closes
// (the mount driver clunks from a finalizer only on the real clock), so
// every byte of srvFid is paid a couple of times per operation. The
// ticket queues are pointers made by the first request that queues:
// inline in the struct they cost 256 bytes a fid.
func TestSrvFidIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(srvFid{}); n > 96 {
		t.Fatalf("srvFid is %d bytes, want <= 96", n)
	}
}
