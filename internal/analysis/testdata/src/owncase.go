// Corpus for the block-ownership check: the early-return leak of a
// pooled block or raw GetBytes buffer, along every CFG path.
package owncase

type blk struct{ Buf []byte }

func (b *blk) Free()     {}
func (b *blk) Ref() *blk { return b }

type queue struct{}

func (q *queue) PutNext(b *blk) {}

func alloc(n int) *blk { return &blk{Buf: make([]byte, n)} }

func GetBytes(n int) []byte { return make([]byte, n) }
func PutBytes(p []byte)     {}

func consume(p []byte) {}

// --- the early-return leak ---

func leakOnError(q *queue, n int) bool {
	b := alloc(n)
	b.Buf[0] = 1 // header written: the block is live
	if n > 512 {
		return false // want block-ownership "may leak"
	}
	q.PutNext(b)
	return true
}

func rawLeak(n int, tiny bool) {
	buf := GetBytes(n)
	buf[0] = 7
	if tiny {
		return // want block-ownership "may leak"
	}
	PutBytes(buf)
}

func fetch(n int) (*blk, bool) { return alloc(n), n > 0 }

// A block that was never touched on the early-return path is the
// error-return shape — b is nil there, not leaked.
func errReturnUntouched(q *queue, n int) bool {
	b, ok := fetch(n)
	if !ok {
		return false
	}
	consume(b.Buf)
	q.PutNext(b)
	return true
}

//netvet:owns b
func consumeBlock(q *queue, b *blk) {
	q.PutNext(b)
}

// An //netvet:owns function owns its parameter from entry: returning
// without sinking it is the same early-return leak.
//
//netvet:owns b
func consumeUnlessTiny(q *queue, b *blk, n int) {
	if n < 4 {
		return // want block-ownership "may leak"
	}
	q.PutNext(b)
}

// A call through an annotated parameter is a release: the early return
// before it leaks.
func sendUnlessBig(q *queue, n int) {
	b := alloc(n)
	b.Buf[0] = 1
	if n > 512 {
		return // want block-ownership "released on another path at line 80"
	}
	consumeBlock(q, b)
}

type link struct{}

func (l *link) transmit(b *blk) error { return nil }

// The ARP send shape: the packet goes to the wire, onto the hold queue,
// or, the queue full, is freed; every arm accounts for it.
//
//netvet:owns pkt
func arpSend(l *link, held map[int][]*blk, resolved bool, hop int, pkt *blk) error {
	if resolved {
		return l.transmit(pkt)
	}
	if q := held[hop]; len(q) < 3 {
		held[hop] = append(q, pkt)
	} else {
		pkt.Free()
	}
	return nil
}

// The same shape with a closed-interface arm that forgets the packet.
//
//netvet:owns pkt
func arpSendLeaky(l *link, held map[int][]*blk, closed, resolved bool, hop int, pkt *blk) error {
	if closed {
		return nil // want block-ownership "pkt may leak"
	}
	if resolved {
		return l.transmit(pkt)
	}
	if q := held[hop]; len(q) < 3 {
		held[hop] = append(q, pkt)
	} else {
		pkt.Free()
	}
	return nil
}

// --- the rest must stay silent ---

// defer covers every return path: no leak.
func deferFreeNoLeak(n int) bool {
	b := alloc(n)
	defer b.Free()
	if n == 0 {
		return false
	}
	consume(b.Buf)
	return true
}

// Each path releases exactly once.
func releaseOnEachPath(q *queue, b *blk, keep bool) {
	if keep {
		q.PutNext(b)
		return
	}
	b.Free()
}

// Ref marks refcounted fan-out: linear ownership reasoning stops, so
// the per-destination transfers and the trailing Free stay unjudged.
func refLoop(q *queue, b *blk, dests int) {
	for i := 1; i < dests; i++ {
		b.Ref()
	}
	for i := 0; i < dests; i++ {
		q.PutNext(b)
	}
	b.Free()
}

// A constructor hands the block out: never released here, so no leak.
func newBlock(n int) *blk {
	b := alloc(n)
	b.Buf = b.Buf[:0]
	return b
}

// Escapes end the analysis: storing the block is not a leak.
type stash struct{ b *blk }

func park(s *stash, n int, useIt bool) {
	b := alloc(n)
	if useIt {
		s.b = b
		return
	}
	b.Free()
}

// Conditional acquisition delivered under a nil test: on the branch
// where msg was never filled in, the nil check proves there is nothing
// to release, so neither arm leaks. This is the urp reassembly shape.
func reassemble(q *queue, data []byte, eom bool) {
	var msg *blk
	if eom {
		msg = alloc(len(data))
		copy(msg.Buf, data)
	}
	if msg != nil {
		q.PutNext(msg)
	}
}

// The inverted test works too: the early return is the nil arm.
func reassembleInverted(q *queue, data []byte, eom bool) {
	var msg *blk
	if eom {
		msg = alloc(len(data))
		copy(msg.Buf, data)
	}
	if msg == nil {
		return
	}
	q.PutNext(msg)
}

// --- the shared-cache shapes: refcounted fan-out through a resident map ---

type cacheFrag struct{ b *blk }

type fragCache struct{ files map[uint64]*cacheFrag }

// The cfs-style insert owns the incoming block. When a racing filler
// already made the fragment resident the loser is freed and the
// resident handed back under a fresh reference; otherwise the block
// escapes into the cache, which owns it from then on. Every arm is
// accounted for, so the whole function stays silent.
//
//netvet:owns b
func cacheInsert(c *fragCache, key uint64, b *blk) *blk {
	if fr, ok := c.files[key]; ok {
		b.Free()
		return fr.b.Ref()
	}
	c.files[key] = &cacheFrag{b: b}
	return b.Ref()
}

// The hit path hands each concurrent reader its own reference while
// the resident copy stays owned by the cache: no leak, no release.
func cacheLookup(c *fragCache, key uint64) *blk {
	fr, ok := c.files[key]
	if !ok {
		return nil
	}
	return fr.b.Ref()
}

// An owning insert that forgets the racing-loser arm leaks it: the
// block was stamped (live), the over-budget arm proves the function
// does release, and the resident arm returns with b still owned.
//
//netvet:owns b
func cacheInsertLeaky(c *fragCache, key uint64, full bool, b *blk) *blk {
	b.Buf[0] = 1
	if fr, ok := c.files[key]; ok {
		return fr.b.Ref() // want block-ownership "b may leak"
	}
	if full {
		b.Free()
		return nil
	}
	c.files[key] = &cacheFrag{b: b}
	return b.Ref()
}

// Guarding delivery on the wrong predicate is still a leak: urgent
// says nothing about whether msg holds a block, so the quiet arm can
// drop a filled-in buffer.
func reassembleLeaky(q *queue, data []byte, eom, urgent bool) {
	var msg *blk
	if eom {
		msg = alloc(len(data))
		copy(msg.Buf, data)
	}
	if urgent {
		q.PutNext(msg)
	}
} // want block-ownership "msg may leak"
