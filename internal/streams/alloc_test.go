package streams

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/block"
	"repro/internal/vclock"
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
	s = New(1<<30, func(blk *Block) { s.Produce(blk) })
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

// The refusing put's gate: Produce allocates nothing, whether it queues
// a block or refuses one. A shared line calls it once per frame for
// every conversation it delivers to, the unread one too.
func TestAllocsProduce(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	payload := make([]byte, 1024)
	open := New(1<<30, nil)
	defer open.Close()
	queued := testing.AllocsPerRun(200, func() {
		if !open.Produce(NewBlock(payload)) {
			t.Fatal("Produce refused on an empty stream")
		}
		b, err := open.next(false)
		if b == nil || err != nil {
			t.Fatalf("next = %v, %v", b, err)
		}
		b.Free()
	})
	if queued != 0 {
		t.Errorf("Produce that queues allocates %.1f objects, want 0", queued)
	}
	full := New(len(payload), nil)
	defer full.Close()
	full.Produce(NewBlock(payload))
	refused := testing.AllocsPerRun(200, func() {
		if full.Produce(NewBlock(payload)) {
			t.Fatal("Produce queued on a full stream")
		}
	})
	if refused != 0 {
		t.Errorf("Produce that refuses allocates %.1f objects, want 0", refused)
	}
}

// The per-conversation gate: a conversation's stream is one object,
// its chain ends and receive queue inside it, and a pushed module's two
// queues are one more. Every dial builds streams, so a queue made per
// chain end (five objects a stream, two a push) shows up at population
// scale.
func TestAllocsConvStream(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := vclock.NewVirtual()
	v.Run(func() {
		conv := testing.AllocsPerRun(200, func() {
			NewConv(0, v, io.Discard).Close()
		})
		if conv > 1 {
			t.Errorf("NewConv + Close allocates %.1f objects, want <= 1", conv)
		}
		s := NewConv(0, v, io.Discard)
		defer s.Close()
		pass := &Qinfo{Name: "pass", Iput: PassPut, Oput: PassPut}
		push := testing.AllocsPerRun(200, func() {
			if err := s.Push(pass, nil); err != nil {
				t.Error(err)
			}
			if err := s.Pop(); err != nil {
				t.Error(err)
			}
		})
		if push > 1 {
			t.Errorf("Push + Pop of a stateless module allocates %.1f objects, want <= 1", push)
		}
	})
}

// The splitter's whole-frame gate: a block that is exactly one frame,
// with nothing partial, goes up without a copy. Batch peels its prefix
// in place, so no block is made or copied: the block the reader gets
// is the block the device queued. A compressed frame costs its
// expansion block and nothing more.
func TestAllocsSplitWholeFrame(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	payload := bytes.Repeat([]byte("Tread fid 7 offset 8192 count 8192 "), 8)
	batchWire := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	batchWire = append(batchWire, payload...)
	lz, stored := compressFrame(payload, true)
	if stored {
		t.Fatal("the payload did not compress")
	}
	compressWire := bytes.Clone(lz.Bytes())
	lz.Free()
	for _, c := range []struct {
		mod        string
		wire       []byte
		blocksMade int64
	}{
		{"batch", batchWire, 0},
		{"compress", compressWire, 1},
	} {
		s := New(1<<30, nil)
		if err := s.WriteCtl("push " + c.mod); err != nil {
			t.Fatal(err)
		}
		up := func() (made, copied int64) {
			b := NewBlock(c.wire)
			b.Delim = true
			before := block.Snapshot()
			s.Produce(b)
			got, err := s.next(false)
			after := block.Snapshot()
			if err != nil || got == nil || !bytes.Equal(got.Bytes(), payload) {
				t.Fatalf("%s: whole frame came up as %v, %v", c.mod, got, err)
			}
			got.Free()
			return after.Allocs - before.Allocs, after.BytesCopied - before.BytesCopied
		}
		made, copied := up()
		if made != c.blocksMade {
			t.Errorf("%s: %d blocks made for a whole frame, want %d", c.mod, made, c.blocksMade)
		}
		if copied != 0 {
			t.Errorf("%s: %d bytes copied for a whole frame, want 0", c.mod, copied)
		}
		if allocs := testing.AllocsPerRun(200, func() { up() }); allocs != 0 {
			t.Errorf("%s: a whole frame up allocates %.1f objects, want 0", c.mod, allocs)
		}
		s.Close()
	}
}
