package netdev

import (
	"testing"

	"repro/internal/block"
	"repro/internal/vfs"
)

// Every dial walks the numbered conversation directory and then one of
// its files. The directory builds only the file walked to, so the walk
// costs six objects: the directory, its two closures and its child
// function, and the ctl file with its open closure. Building every
// file of the directory on each walk cost 25. check.sh runs this
// without the race detector (whose instrumentation allocates).
func TestAllocsConvWalk(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates; gated in check.sh without -race")
	}
	root, err := New(&fakeProto{}, "bootes").Attach("")
	if err != nil {
		t.Fatal(err)
	}
	clone, err := root.Walk("clone")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := clone.Open(vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	got := testing.AllocsPerRun(1000, func() {
		dir, err := root.Walk("0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Walk("ctl"); err != nil {
			t.Fatal(err)
		}
	})
	if got > 6 {
		t.Errorf("walking N and then ctl allocates %.1f objects, want 6", got)
	}
}
