package obs

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/vclock"
)

// The observability core rides every hot path in the tree, so its own
// cost is gated the same way the block pool's is: a disabled ring is
// one atomic load, an enabled ring a handful of atomic stores, a
// counter bump one padded add, a histogram sample two adds and a
// bucket add — and none of them ever allocates. The PR3/PR4 alloc
// gates (streams 16K write ≤2, ninep Rread ≤12) only stay green with
// instrumentation compiled in because these are all zero.
func TestAllocsEmitDisabled(t *testing.T) {
	var r Ring
	if got := testing.AllocsPerRun(1000, func() { r.Emit(EvSend, 1, 2) }); got != 0 {
		t.Fatalf("disabled Emit allocates %.1f objects/op, want 0", got)
	}
}

func TestAllocsEmitEnabled(t *testing.T) {
	var r Ring
	r.Enable(vclock.NewVirtual())
	if got := testing.AllocsPerRun(1000, func() { r.Emit(EvSend, 1, 2) }); got != 0 {
		t.Fatalf("enabled Emit allocates %.1f objects/op, want 0", got)
	}
}

func TestAllocsHistAndWatermark(t *testing.T) {
	var h Hist
	if got := testing.AllocsPerRun(1000, func() { h.Observe(time.Millisecond) }); got != 0 {
		t.Fatalf("Hist.Observe allocates %.1f objects/op, want 0", got)
	}
	var w Watermark
	if got := testing.AllocsPerRun(1000, func() { w.Note(3) }); got != 0 {
		t.Fatalf("Watermark.Note allocates %.1f objects/op, want 0", got)
	}
}

// Every URP conversation and every xport.Conv (IL, TCP) embeds
// a Ring, and almost none is ever armed: its 256 slots (10 KiB) are
// made by the first Enable, so a ring nobody traces is a few words.
func TestRingIsSmallUntilEnabled(t *testing.T) {
	if n := unsafe.Sizeof(Ring{}); n > 64 {
		t.Fatalf("a never-enabled Ring is %d bytes, want <= 64", n)
	}
	var r Ring
	if evs := r.Events(); evs != nil {
		t.Fatalf("a never-enabled ring has events %v", evs)
	}
	r.Emit(EvSend, 1, 2)
	if evs := r.Events(); evs != nil {
		t.Fatalf("a never-enabled ring recorded %v", evs)
	}
}
