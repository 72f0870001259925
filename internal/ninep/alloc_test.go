package ninep

import (
	"testing"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// The block-discipline gate for 9P: one Rread round-trip over an
// in-process pipe. Request and response travel as pool-backed buffers
// whose ownership crosses the pipe — marshal, transport, and decode
// must not reintroduce per-message buffer allocations. The budget
// covers the Fcall structs, the tag channel, and the copied Data;
// before pooling this path also allocated fresh marshal and wire
// buffers on both sides.
func TestAllocsRreadRoundTrip(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fs := ramfs.New("srv")
	fs.WriteFile("f", make([]byte, 4096), 0664)
	a, p := NewPipe()
	go Serve(p, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, vclock.Real)
	cl, err := NewClient(a)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	root, err := cl.Attach("u", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.CloneWalk("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Read(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Rread(4K) round trip: %.1f allocs/op", allocs)
	if allocs > 12 {
		t.Fatalf("Rread round trip allocates %.1f objects/op, want <= 12 (pool bypassed?)", allocs)
	}
}
