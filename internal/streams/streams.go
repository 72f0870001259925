// Package streams implements the Plan 9 stream mechanism of §2.4: "a
// bidirectional channel connecting a physical or pseudo-device to user
// processes", built from a linear list of processing modules, each a
// pair of queues with put routines for the two directions.
//
// Faithful properties:
//
//   - Information travels as linked blocks carrying data or control.
//   - A put routine usually calls the next module's put directly, so
//     "most data is output without context switching"; modules that
//     need asynchrony (protocol engines) queue blocks and run helper
//     goroutines, the analogue of kernel processes.
//   - Writes of up to MaxBlock (32K) bytes occupy a single block and
//     the last block of a write carries a delimiter flag.
//   - A per-stream read lock ensures one reader at a time and that the
//     bytes read are contiguous; reads stop at a delimiter.
//   - Streams are dynamically configurable: the control interface
//     interprets "push <module>", "pop", and "hangup", and passes other
//     control blocks to the modules.
//   - There is no implicit synchronization between concurrent users
//     beyond the queue locks, as in the kernel.
package streams

import (
	"errors"
	"sync"

	"repro/internal/block"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// MaxBlock is the largest block a single write produces; writes of
// less than this are guaranteed to be contained by a single block
// (§2.4.1).
const MaxBlock = 32 * 1024

// DefaultLimit is the default queue limit in bytes before writers
// block for flow control.
const DefaultLimit = 128 * 1024

// Block is the unit of information in a stream (§2.4): a type, a
// delimiter flag and a buffer holding data or control information. It
// is the kernel's one block, block.Block, under the name the stream
// code has always used: whoever consumes a block — the read path, a
// module that absorbs it, a queue discarding it — calls Free.
type Block = block.Block

// Block types.
const (
	BlockData   = block.Data
	BlockCtl    = block.Ctl
	BlockHangup = block.Hangup
)

// NewBlock returns a data block holding a copy of p, drawn from the
// block pool with header headroom. This is the mandatory copy at the
// user-write boundary: the caller keeps p, the stream owns the block.
func NewBlock(p []byte) *Block { return block.Copy(p, block.DefaultHeadroom) }

// NewCtlBlock returns a control block carrying an ASCII command.
func NewCtlBlock(cmd string) *Block { return block.Control(BlockCtl, cmd) }

// PutFunc is a module's put routine for one direction. It runs on the
// caller's goroutine; it may enqueue locally, forward with q.PutNext,
// or both.
type PutFunc func(q *Queue, b *Block)

// Qinfo describes a stream processing module, as the kernel's Qinfo
// does: a name for push(2), open/close hooks, and the two put routines.
type Qinfo struct {
	Name string
	// Open is called when an instance is created; q is the instance's
	// upstream (toward-process) queue, q.Other() the downstream one.
	Open func(q *Queue, arg any) error
	// Close is called when the instance is destroyed (stream close or
	// pop), on the upstream queue. It must stop helper goroutines.
	Close func(q *Queue)
	// Drain, if set, is called on the upstream queue while the module
	// is still spliced and the stream's config lock is held exclusively
	// (no put chain in flight). The module must emit any data it is
	// holding — coalesced-but-unflushed blocks — down the chain, so a
	// pop never drops or reorders data relative to later writes. It
	// must not block on upstream flow control.
	Drain func(q *Queue)
	// Iput processes blocks moving upstream (toward the process).
	Iput PutFunc
	// Oput processes blocks moving downstream (toward the device).
	Oput PutFunc
}

var (
	modmu    sync.RWMutex
	registry = map[string]*Qinfo{}
)

// Register makes a module available to "push name" control requests.
func Register(qi *Qinfo) {
	modmu.Lock()
	defer modmu.Unlock()
	registry[qi.Name] = qi
}

// Lookup finds a registered module.
func Lookup(name string) (*Qinfo, bool) {
	modmu.RLock()
	defer modmu.RUnlock()
	qi, ok := registry[name]
	return qi, ok
}

// Errors.
var (
	ErrHungup       = vfs.ErrHungup
	ErrClosed       = errors.New("stream closed")
	ErrUnknownMod   = errors.New("push: unknown stream module")
	ErrNothingToPop = errors.New("pop: no module to pop")
	ErrBadModArg    = errors.New("push: bad module argument")
)

// Queue is one direction of one module instance: a bounded block list
// plus the module's put routine. The pair (q, q.other) represents the
// instance; Aux carries its state.
type Queue struct {
	s     *Stream
	qi    *Qinfo
	up    bool // direction: true = toward process
	put   PutFunc
	next  *Queue // next queue in this direction
	other *Queue // reverse-direction queue of the same instance

	mu     sync.Mutex
	rwait  vclock.Cond // readers waiting for blocks
	wwait  vclock.Cond // writers waiting for space
	first  *Block
	last   *Block
	nbytes int
	limit  int
	closed bool
	hungup bool
	Aux    any
}

func newQueue(s *Stream, qi *Qinfo, up bool, put PutFunc) *Queue {
	q := &Queue{s: s, qi: qi, up: up, put: put, limit: s.limit}
	q.rwait.Init(s.clk, &q.mu)
	q.wwait.Init(s.clk, &q.mu)
	return q
}

// Stream returns the stream the queue belongs to.
func (q *Queue) Stream() *Stream { return q.s }

// Other returns the reverse-direction queue of the same instance.
func (q *Queue) Other() *Queue { return q.other }

// Put hands a block to this queue's put routine on the caller's
// goroutine — the fundamental stream operation.
func (q *Queue) Put(b *Block) { q.put(q, b) }

// PutNext forwards a block to the next module in this direction; put
// routines use it to continue the chain ("the first put routine calls
// the second, the second calls the third, and so on").
func (q *Queue) PutNext(b *Block) {
	if n := q.next; n != nil {
		n.put(n, b)
	}
}

// Enqueue adds a block to the queue's local list, blocking while the
// queue is over its limit (flow control), and wakes readers. Hangup
// blocks mark the queue so readers drain and then see EOF.
func (q *Queue) Enqueue(b *Block) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b.Type == BlockHangup {
		q.hungup = true
		q.rwait.Broadcast()
		q.wwait.Broadcast()
		b.Free() // consumed here like any other block, not just dropped
		return
	}
	for q.nbytes >= q.limit && !q.closed && !q.hungup {
		q.wwait.Wait()
	}
	if q.closed {
		b.Free() // data discarded on a dying stream
		return
	}
	if b.Shared() {
		// The link is one field: a block fanned out by Ref would sit on
		// every holder's queue at once.
		panic("streams: Enqueue of a shared block")
	}
	b.Next = nil
	if q.last == nil {
		q.first = b
	} else {
		q.last.Next = b
	}
	q.last = b
	q.nbytes += b.Len()
	q.rwait.Broadcast()
}

// Get removes and returns the next block, blocking until one arrives,
// the queue hangs up (nil, ErrHungup after draining), or the stream
// closes (nil, ErrClosed).
func (q *Queue) Get() (*Block, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.first == nil {
		if q.closed {
			return nil, ErrClosed
		}
		if q.hungup {
			return nil, ErrHungup
		}
		q.rwait.Wait()
	}
	b := q.dequeueLocked()
	return b, nil
}

// TryGet removes the next block without blocking.
func (q *Queue) TryGet() *Block {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.first == nil {
		return nil
	}
	return q.dequeueLocked()
}

func (q *Queue) dequeueLocked() *Block {
	b := q.first
	q.first = b.Next
	if q.first == nil {
		q.last = nil
	}
	b.Next = nil
	q.nbytes -= b.Len()
	q.wwait.Broadcast()
	return b
}

// putback returns a partially-consumed block to the head of the queue.
// It must wake waiting readers just as Enqueue does: the block it
// re-heads is readable data, and a second reader parked in Get would
// otherwise sleep through it until unrelated traffic arrived.
func (q *Queue) putback(b *Block) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		b.Free() // the stream closed under the reader: discarded
		return
	}
	b.Next = q.first
	q.first = b
	if q.last == nil {
		q.last = b
	}
	q.nbytes += b.Len()
	q.rwait.Broadcast()
}

// Len returns the number of bytes queued locally.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.nbytes
}

// Hungup reports whether a hangup has passed through the queue.
func (q *Queue) Hungup() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hungup
}

// close marks the queue dead, frees the blocks still queued (a closed
// stream's queued data is discarded) and wakes all waiters.
func (q *Queue) close() {
	q.mu.Lock()
	q.closed = true
	for q.first != nil {
		q.dequeueLocked().Free()
	}
	q.rwait.Broadcast()
	q.wwait.Broadcast()
	q.mu.Unlock()
}

// PutQ is the default put routine for a queueing module side: it
// enqueues locally for a helper process (or the user read path) to
// consume later.
func PutQ(q *Queue, b *Block) { q.Enqueue(b) }

// PassPut forwards every block to the next module unchanged — the
// identity processing module side.
func PassPut(q *Queue, b *Block) { q.PutNext(b) }
