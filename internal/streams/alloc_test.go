package streams

import (
	"testing"

	"repro/internal/block"
)

// The block-discipline regression gate for the pipes path: a 16K write
// through a stream to a device that frees its blocks allocates nothing,
// because the payload travels in a recycled pool block and the block is
// the stream's own unit — there is no wrapper to make. Before pooling
// this path cost one fresh 16K buffer per write.
func TestAllocsWrite16K(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var sink int
	s := New(1<<30, func(blk *Block) { sink += blk.Len(); blk.Free() })
	defer s.Close()
	payload := make([]byte, 16*1024)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Write(16K) allocates %.1f objects/op, want 0 (pool bypassed?)", allocs)
	}
	_ = sink
}

// The batch fastpath gate: steady-state coalescing stays under one
// allocation per small write. A 64-byte message rides into the pending
// pooled window by copy; the flush timer amortizes over the ~30
// messages each 2K window holds.
func TestAllocsBatchCoalesce(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var sink int
	s := New(1<<30, func(blk *Block) { sink += blk.Len(); blk.Free() })
	defer s.Close()
	if err := s.WriteCtl("push batch 2048 10ms"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	// Warm the module's reusable message buffer before measuring.
	for i := 0; i < 64; i++ {
		s.Write(payload)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched small write allocates %.1f objects/op, want under 1 (coalesce path must amortize)", allocs)
	}
	_ = sink
}

// The round-trip gate: write then read 1K through a looped-back
// stream. The read side consumes the same pooled block the write
// produced, so the whole trip allocates nothing either.
func TestAllocsRoundTrip(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var s *Stream
	s = New(1<<30, func(blk *Block) { s.DeviceUp(blk) })
	defer s.Close()
	payload := make([]byte, 1024)
	buf := make([]byte, 2048)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("round trip allocates %.1f objects/op, want 0", allocs)
	}
}
