package netdev

import (
	"testing"

	"repro/internal/block"
	"repro/internal/vfs"
)

// Every dial walks the numbered conversation directory and then one of
// its files. The table generates the directory, files and all, as one
// node array on the tenancy's first walk, so a repeat walk costs
// nothing; building a directory and the file walked to on each walk
// cost six objects, and every file of it 25. check.sh runs this
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
	if _, err := root.Walk("0"); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(1000, func() {
		dir, err := root.Walk("0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Walk("ctl"); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("walking N and then ctl again allocates %.1f objects, want 0", got)
	}
}
