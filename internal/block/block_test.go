package block

import (
	"bytes"
	"sync"
	"testing"
)

func TestWindowOps(t *testing.T) {
	b := Alloc(4, 32)
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if b.Headroom() != 32 {
		t.Fatalf("Headroom = %d, want 32", b.Headroom())
	}
	copy(b.Bytes(), "data")

	copy(b.Prepend(3), "hdr")
	if got := string(b.Bytes()); got != "hdrdata" {
		t.Fatalf("after Prepend: %q", got)
	}
	b.Append([]byte("!!"))
	if got := string(b.Bytes()); got != "hdrdata!!" {
		t.Fatalf("after Append: %q", got)
	}
	b.Consume(3)
	b.Trim(2)
	if got := string(b.Bytes()); got != "data" {
		t.Fatalf("after Consume+Trim: %q", got)
	}
	b.Free()
}

func TestPrependGrows(t *testing.T) {
	b := Alloc(4, 0)
	copy(b.Bytes(), "data")
	copy(b.Prepend(8), "headers!")
	if got := string(b.Bytes()); got != "headers!data" {
		t.Fatalf("after growing Prepend: %q", got)
	}
	b.Free()
}

func TestConsumeTrimBounds(t *testing.T) {
	b := Alloc(4, 0)
	defer b.Free()
	for _, f := range []func(){
		func() { b.Consume(5) },
		func() { b.Trim(5) },
		func() { b.Consume(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-window op did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPoolRecycles(t *testing.T) {
	// Warm the class, free, and re-alloc: the hit counter must move.
	// (Another goroutine's pool activity can only add hits, not remove
	// them, and tests in this package run sequentially.)
	b := Alloc(100, 16)
	b.Free()
	before := Snapshot()
	b2 := Alloc(100, 16)
	after := Snapshot()
	if after.PoolHits == before.PoolHits && after.PoolMisses == before.PoolMisses {
		t.Fatal("alloc moved neither hit nor miss counter")
	}
	b2.Free()
}

func TestDoubleFreePanics(t *testing.T) {
	b := Alloc(8, 0)
	// Pin the buffer so the pool cannot hand it to anyone between the
	// first and second Free (the panic must come from refcounting, not
	// luck). class -1 blocks never enter the pool.
	b.class = -1
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double Free did not panic")
		}
	}()
	b.Free()
}

func TestRefFanout(t *testing.T) {
	b := Alloc(5, 0)
	copy(b.Bytes(), "share")
	b.Ref()
	b.Ref()
	// Three owners now; two frees must leave the data intact.
	b.Free()
	b.Free()
	if got := string(b.Bytes()); got != "share" {
		t.Fatalf("data after partial frees: %q", got)
	}
	b.Free()
}

// A block freed as a delimited, queued control block comes
// back from the pool as plain data: a flag that survived recycling
// would hand the next owner a delimiter or a queue link it never set
// (the stale-header class of bug the pool has had before).
func TestRecycledBlockIsCleanData(t *testing.T) {
	other := Alloc(1, 0)
	defer other.Free()
	recycled := false
	for i := 0; i < 100; i++ {
		b := Alloc(10, 0)
		b.Type, b.Delim, b.Next = Ctl, true, other
		b.Free()
		c := Alloc(10, 0)
		recycled = recycled || c == b
		if c.Type != Data || c.Delim || c.Next != nil {
			t.Fatalf("recycled block: type %d delim %v next %p", c.Type, c.Delim, c.Next)
		}
		c.Free()
	}
	if !recycled {
		t.Fatal("the pool never handed a freed block back: nothing was tested")
	}
}

func TestControl(t *testing.T) {
	b := Control(Hangup, "")
	if b.Type != Hangup || !b.Delim || b.Len() != 0 || b.Shared() {
		t.Fatalf("Control(Hangup): type %d delim %v len %d shared %v", b.Type, b.Delim, b.Len(), b.Shared())
	}
	b.Free()
	b = Control(Ctl, "push batch")
	if b.Type != Ctl || string(b.Bytes()) != "push batch" {
		t.Fatalf("Control(Ctl): type %d %q", b.Type, b.Bytes())
	}
	if b.Ref(); !b.Shared() {
		t.Fatal("a block with two references does not report Shared")
	}
	b.Free()
	b.Free()
}

func TestFromBytes(t *testing.T) {
	p := []byte("foreign")
	b := FromBytes(p)
	if b.Len() != 7 || !bytes.Equal(b.Bytes(), p) {
		t.Fatalf("FromBytes window = %q", b.Bytes())
	}
	copy(b.Prepend(2), "->")
	if got := string(b.Bytes()); got != "->foreign" {
		t.Fatalf("after Prepend on foreign block: %q", got)
	}
	b.Free()
}

func TestGetPutBytes(t *testing.T) {
	p := GetBytes(300)
	if len(p) != 300 {
		t.Fatalf("GetBytes len = %d", len(p))
	}
	if cap(p) != 1024 {
		t.Fatalf("GetBytes cap = %d, want class size 1024", cap(p))
	}
	PutBytes(p)
	// Unrecognized capacities are dropped, not corrupted.
	PutBytes(make([]byte, 77))
}

func TestStatsBalance(t *testing.T) {
	before := Snapshot()
	bs := make([]*Block, 50)
	for i := range bs {
		bs[i] = Alloc(64, 16)
	}
	mid := Snapshot()
	if d := mid.InFlight - before.InFlight; d != 50 {
		t.Fatalf("InFlight rose by %d, want 50", d)
	}
	for _, b := range bs {
		b.Free()
	}
	after := Snapshot()
	if d := after.InFlight - before.InFlight; d != 0 {
		t.Fatalf("InFlight drifted by %d after balanced alloc/free", d)
	}
	if after.Allocs-before.Allocs != 50 || after.Frees-before.Frees != 50 {
		t.Fatalf("counters: allocs +%d frees +%d, want +50/+50",
			after.Allocs-before.Allocs, after.Frees-before.Frees)
	}
}

// TestRawBuffersKeptApart: the books count GetBytes buffers in
// RawInFlight, never in the InFlight the leak gate reads, and still in
// the Allocs and Frees totals.
func TestRawBuffersKeptApart(t *testing.T) {
	before := Snapshot()
	p := GetBytes(100)
	mid := Snapshot()
	if d := mid.RawInFlight - before.RawInFlight; d != 1 {
		t.Errorf("GetBytes moved RawInFlight by %d, want 1", d)
	}
	if d := mid.InFlight - before.InFlight; d != 0 {
		t.Errorf("GetBytes moved InFlight by %d, want 0", d)
	}
	PutBytes(p)
	after := Snapshot()
	if d := after.RawInFlight - before.RawInFlight; d != 0 {
		t.Errorf("RawInFlight drifted by %d after GetBytes/PutBytes", d)
	}
	if d := after.InFlight - before.InFlight; d != 0 {
		t.Errorf("PutBytes moved InFlight by %d, want 0", d)
	}
	if after.Allocs-before.Allocs != 1 || after.Frees-before.Frees != 1 {
		t.Errorf("counters: allocs +%d frees +%d, want +1/+1",
			after.Allocs-before.Allocs, after.Frees-before.Frees)
	}
}

// TestHammer exercises the allocator from many goroutines under the
// race detector: each fills its block with a signature, prepends and
// peels a header, and verifies the payload before freeing — any
// cross-goroutine buffer aliasing from a pooling bug shows up as a
// signature mismatch or a race report.
func TestHammer(t *testing.T) {
	const goroutines = 16
	const rounds = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(sig byte) {
			defer wg.Done()
			sizes := []int{1, 60, 250, 1000, 4000, 16000, 33000}
			for i := 0; i < rounds; i++ {
				n := sizes[i%len(sizes)]
				b := Alloc(n, DefaultHeadroom)
				p := b.Bytes()
				for j := range p {
					p[j] = sig
				}
				hdr := b.Prepend(8)
				for j := range hdr {
					hdr[j] = ^sig
				}
				b.Consume(8)
				for j, c := range b.Bytes() {
					if c != sig {
						panic("hammer: foreign byte in owned block at " +
							string(rune('0'+j%10)))
					}
				}
				if i%3 == 0 {
					b.Ref()
					b.Free()
				}
				b.Free()
			}
		}(byte(g + 1))
	}
	wg.Wait()
}

func BenchmarkAllocFree16K(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		blk := Alloc(16*1024, DefaultHeadroom)
		blk.Free()
	}
}
