// Package block provides the kernel-style data block the stream system
// and protocol stack pass by ownership instead of copying (§2.4: "most
// data is output without context switching" — the kernel achieves that
// with blocks carrying read/write pointers and header headroom, and so
// do we).
//
// A Block is the one block of §2.4: "a type, some state flags, and
// pointers to an optional buffer". It owns a buffer and a readable
// window [rp, wp) within it. The space before rp is headroom: a
// protocol layer prepends its header by moving rp back, in place,
// instead of allocating a fresh packet. The space after wp is tailroom
// for trailers (frame check sequences).
// Buffers come from size-classed sync.Pool allocators, so a steady
// data path recycles the same few buffers instead of pressuring the
// garbage collector.
//
// Ownership rules (see DESIGN.md "Block discipline"):
//
//   - Alloc/Copy/FromBytes return a block owned by the caller.
//   - Passing a block to a consuming API (a stream put routine, a
//     device transmit, stack.SendBlock) transfers ownership; the caller
//     must not touch the block or any slice of its buffer afterwards.
//   - The final owner calls Free, which recycles the buffer.
//   - Ref adds a reference for read-only fan-out (ether broadcast);
//     each holder Frees its own reference and nobody mutates — not the
//     window, not Type or Delim, and above all not Next: a shared
//     block is never linked onto a queue.
//   - Free of a block that was already freed panics: a double free is
//     an ownership bug that would otherwise surface later as silent
//     data corruption when the pooled buffer is reused.
package block

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultHeadroom is enough for the deepest header stack in the tree:
// ether (14) + IP (20) + IL (18) = 52, rounded up with slack.
const DefaultHeadroom = 64

// tailReserve is the tailroom Alloc guarantees beyond n, covering the
// largest trailer (the ether CRC32 FCS, 4 bytes; Datakit's CRC-16 is
// smaller).
const tailReserve = 8

// classSizes are the pooled buffer sizes. The classes track the
// traffic the stack actually carries: protocol control packets plus
// headroom (256), URP/Datakit cells and MTU-sized ether frames (2048),
// mid-size payloads (4096), 9P messages — MaxMsg is 8352 (16384), and
// full 32k stream blocks with headroom and trailer slack (36864).
var classSizes = [...]int{256, 1024, 2048, 4096, 16384, 36864}

var classPools [len(classSizes)]sync.Pool

// Type says what a block carries (§2.4).
type Type uint8

const (
	Data   Type = iota // bytes for the reader
	Ctl                // an ASCII command for the modules
	Hangup             // the stream is ending
)

// Block is a reference-counted buffer with a readable window, a type
// and a delimiter flag. The zero Block is not valid (its reference
// count is); use Alloc, Copy, FromBytes, or Control.
type Block struct {
	buf    []byte
	rp, wp int
	// Next links the block into the one queue that holds it; the queue
	// owns the field.
	Next  *Block
	refs  atomic.Int32
	class int8 // index into classSizes; -1 = unpooled buffer
	Type  Type
	Delim bool // last block of a message
}

// counter is an atomic counter padded to a cache line: the allocator
// is hammered from both ends of every link at once, and adjacent
// counters would otherwise ping-pong one line between cores.
type counter struct {
	v atomic.Int64
	_ [56]byte
}

func (c *counter) add(n int64) { c.v.Add(n) }
func (c *counter) load() int64 { return c.v.Load() }

// Counters behind Snapshot. The hot paths (Alloc, Free, GetBytes,
// PutBytes) each touch exactly one: hits and in-flight are derived at
// snapshot time, and the miss counters quiesce once the pools warm up.
var (
	statAllocs      counter // every block or raw buffer handed out
	statUnpooled    counter // allocations that never consulted a pool
	statPoolMisses  counter // pool consulted, had to make a new buffer
	statFrees       counter // every release (Free, Detach, PutBytes)
	statBytesCopied counter // payload bytes copied at mandatory-copy points
)

// Stats is a snapshot of the allocator counters.
type Stats struct {
	Allocs      int64 // blocks handed out (Alloc, Copy, FromBytes)
	PoolHits    int64 // allocations served from a pool
	PoolMisses  int64 // allocations that had to make a new buffer
	Frees       int64 // blocks released (refcount reached zero)
	BytesCopied int64 // payload bytes copied at mandatory-copy points
	InFlight    int64 // Allocs - Frees: blocks currently owned somewhere
}

// Snapshot returns the current allocator counters. PoolHits and
// InFlight are derived (hits = pooled attempts minus misses, in
// flight = allocs minus frees), so a snapshot taken while traffic is
// moving can be off by the few operations in progress.
func Snapshot() Stats {
	allocs := statAllocs.load()
	unpooled := statUnpooled.load()
	misses := statPoolMisses.load()
	frees := statFrees.load()
	return Stats{
		Allocs:      allocs,
		PoolHits:    allocs - unpooled - misses,
		PoolMisses:  misses,
		Frees:       frees,
		BytesCopied: statBytesCopied.load(),
		InFlight:    allocs - frees,
	}
}

// String formats the counters in the ASCII style of a stats file.
func (s Stats) String() string {
	return fmt.Sprintf("allocs: %d\npool hits: %d\npool misses: %d\nfrees: %d\nbytes copied: %d\nin flight: %d\n",
		s.Allocs, s.PoolHits, s.PoolMisses, s.Frees, s.BytesCopied, s.InFlight)
}

// classFor returns the smallest class index whose size holds n, or -1.
func classFor(n int) int {
	for i, sz := range classSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// Alloc returns a block whose readable window is n bytes long,
// preceded by at least headroom bytes of prepend space and followed by
// at least tailReserve bytes of tailroom. The window's contents are
// unspecified (recycled buffers are not cleared); the caller fills it.
// Everything else about a recycled block is reset: it is undelimited
// data, unlinked and unstamped, whatever it was when it was freed.
func Alloc(n, headroom int) *Block {
	total := headroom + n + tailReserve
	statAllocs.add(1)
	class := classFor(total)
	var b *Block
	if class >= 0 {
		if v := classPools[class].Get(); v != nil {
			b = v.(*Block)
		} else {
			statPoolMisses.add(1)
			b = &Block{buf: make([]byte, classSizes[class])}
		}
	} else {
		statUnpooled.add(1)
		b = &Block{buf: make([]byte, total)}
	}
	b.class = int8(class)
	b.rp = headroom
	b.wp = headroom + n
	b.Next, b.Type, b.Delim = nil, Data, false
	b.refs.Store(1)
	return b
}

// Copy returns a pooled block holding a copy of p with the given
// headroom — the mandatory copy at a user-write or retain boundary.
func Copy(p []byte, headroom int) *Block {
	b := Alloc(len(p), headroom)
	copy(b.Bytes(), p)
	statBytesCopied.add(int64(len(p)))
	return b
}

// FromBytes wraps an existing buffer as a block without copying. The
// buffer does not come from (or return to) a pool; Free releases only
// the reference. The caller transfers ownership of p.
func FromBytes(p []byte) *Block {
	statAllocs.add(1)
	statUnpooled.add(1)
	b := &Block{buf: p, rp: 0, wp: len(p), class: -1}
	b.refs.Store(1)
	return b
}

// Control returns a delimited block of type t (Ctl or Hangup) carrying
// msg — the one constructor of blocks that are not data.
func Control(t Type, msg string) *Block {
	b := FromBytes([]byte(msg))
	b.Type, b.Delim = t, true
	return b
}

// Bytes returns the readable window. The slice aliases the block's
// buffer: it dies when the block is freed.
func (b *Block) Bytes() []byte { return b.buf[b.rp:b.wp] }

// Len returns the length of the readable window.
func (b *Block) Len() int { return b.wp - b.rp }

// Headroom returns the prepend space available.
func (b *Block) Headroom() int { return b.rp }

// Tailroom returns the append space available.
func (b *Block) Tailroom() int { return len(b.buf) - b.wp }

// Prepend grows the window by n bytes at the front and returns the new
// front region for the caller to fill — the in-place header push. If
// the headroom is short the block reallocates and copies (counted in
// BytesCopied), so layers sized within DefaultHeadroom never copy.
func (b *Block) Prepend(n int) []byte {
	if b.rp < n {
		b.grow(n-b.rp+DefaultHeadroom, 0)
	}
	b.rp -= n
	return b.buf[b.rp : b.rp+n]
}

// Extend grows the window by n bytes at the back and returns the new
// tail region for the caller to fill — the in-place trailer push.
func (b *Block) Extend(n int) []byte {
	if len(b.buf)-b.wp < n {
		b.grow(0, n-(len(b.buf)-b.wp))
	}
	s := b.buf[b.wp : b.wp+n]
	b.wp += n
	return s
}

// Append copies p into tailroom, extending the window.
func (b *Block) Append(p []byte) {
	copy(b.Extend(len(p)), p)
	statBytesCopied.add(int64(len(p)))
}

// grow reallocates with at least the requested extra head/tail space.
// The old buffer is abandoned to the garbage collector (growth is the
// slow path a correctly sized Alloc never hits).
func (b *Block) grow(extraHead, extraTail int) {
	n := b.Len()
	newRp := b.rp + extraHead
	total := newRp + n + (len(b.buf) - b.wp) + extraTail
	class := classFor(total)
	var buf []byte
	if class >= 0 {
		buf = make([]byte, classSizes[class])
	} else {
		buf = make([]byte, total)
	}
	copy(buf[newRp:], b.Bytes())
	statBytesCopied.add(int64(n))
	b.buf = buf
	b.rp = newRp
	b.wp = newRp + n
	b.class = int8(class)
}

// Consume drops n bytes from the front of the window (a layer peeling
// its header, or a reader taking a partial block).
func (b *Block) Consume(n int) {
	if n < 0 || b.rp+n > b.wp {
		panic("block: Consume past window")
	}
	b.rp += n
}

// Trim drops n bytes from the back of the window (stripping a trailer).
func (b *Block) Trim(n int) {
	if n < 0 || b.wp-n < b.rp {
		panic("block: Trim past window")
	}
	b.wp -= n
}

// Ref adds a reference for read-only sharing: the block is freed when
// every holder has called Free, and no holder may mutate the window or
// buffer. Returns b for chaining.
func (b *Block) Ref() *Block {
	b.refs.Add(1)
	return b
}

// Shared reports whether anyone else holds a reference. A shared block
// is read-only and may not be queued: the queue link is one field.
func (b *Block) Shared() bool { return b.refs.Load() > 1 }

// Free releases one reference; the last release recycles the buffer
// into its size-class pool. Freeing an already-free block panics:
// that ownership bug would otherwise reappear as data corruption when
// the pooled buffer is recycled under a stale alias.
func (b *Block) Free() {
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("block: double free")
	}
	statFrees.add(1)
	if b.class >= 0 {
		classPools[b.class].Put(b)
	}
}

// Detach removes the buffer from the pool economy and returns the
// readable window: for handing bytes to a consumer that outlives any
// ownership discipline (the impairment scheduler, a channel of plain
// slices). The block is released but its buffer is never recycled, so
// the returned slice is safe for as long as the holder keeps it.
// Detaching a shared block panics — the other holders' references
// could not be honored.
func (b *Block) Detach() []byte {
	if b.refs.Load() != 1 {
		panic("block: Detach of shared block")
	}
	p := b.Bytes()
	b.refs.Store(0)
	statFrees.add(1)
	return p
}

// GetBytes returns a pooled plain buffer of length n (and class-sized
// capacity) for callers that traffic in raw slices, like the 9P
// transports. Return it with PutBytes when done; a buffer that is
// never returned simply falls to the garbage collector.
func GetBytes(n int) []byte {
	statAllocs.add(1)
	class := classFor(n)
	if class >= 0 {
		if v := classPools[class].Get(); v != nil {
			b := v.(*Block)
			buf := b.buf
			b.buf = nil
			blockStructPool.Put(b)
			return buf[:n]
		}
		statPoolMisses.add(1)
		return make([]byte, classSizes[class])[:n]
	}
	statUnpooled.add(1)
	return make([]byte, n)
}

// PutBytes recycles a buffer obtained from GetBytes (or any slice
// whose capacity is exactly a class size). The caller must own p
// outright and must not touch it again — recycling an aliased buffer
// is the same corruption hazard as a double Free. Unrecognized
// capacities are dropped to the garbage collector.
func PutBytes(p []byte) {
	statFrees.add(1)
	c := cap(p)
	for i, sz := range classSizes {
		if c == sz {
			b := getBlockStruct()
			b.buf = p[:sz]
			classPools[i].Put(b)
			return
		}
	}
}

// blockStructPool recycles the Block headers GetBytes strips from
// pooled buffers, so the raw-slice path allocates nothing steady-state.
var blockStructPool sync.Pool

func getBlockStruct() *Block {
	if v := blockStructPool.Get(); v != nil {
		return v.(*Block)
	}
	return &Block{}
}
