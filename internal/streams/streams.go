// Package streams implements the Plan 9 stream mechanism of §2.4: "a
// bidirectional channel connecting a physical or pseudo-device to user
// processes", built from a linear list of processing modules, each a
// pair of queues with put routines for the two directions.
//
// Faithful properties:
//
//   - Information travels as linked blocks carrying data or control.
//   - A put routine calls the next module's put directly, so "most
//     data is output without context switching": downstream on the
//     writing process, upstream on the reading one. The one place a
//     block waits is the stream's receive queue at the device end.
//   - Writes of up to MaxBlock (32K) bytes occupy a single block and
//     the last block of a write carries a delimiter flag.
//   - A per-stream read lock ensures one reader at a time and that the
//     bytes read are contiguous; reads stop at a delimiter.
//   - Streams are dynamically configurable: the control interface
//     interprets "push <module>", "pop", and "hangup", and passes other
//     control blocks to the modules.
//   - There is no implicit synchronization between concurrent users
//     beyond the stream's locks, as in the kernel.
package streams

import (
	"errors"

	"repro/internal/block"
	"repro/internal/vfs"
)

// MaxBlock is the largest block a single write produces; writes of
// less than this are guaranteed to be contained by a single block
// (§2.4.1).
const MaxBlock = 32 * 1024

// DefaultLimit is the default limit in bytes of a stream's receive
// queue, past which the device blocks for flow control.
const DefaultLimit = 128 * 1024

// Block is the unit of information in a stream (§2.4): a type, a
// delimiter flag and a buffer holding data or control information. It
// is the kernel's one block, block.Block, under the name the stream
// code has always used: whoever consumes a block — the read path, a
// module that absorbs it, a closing stream discarding it — calls Free.
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
// caller's goroutine: the writer's downstream, the reader's upstream.
// It forwards with q.PutNext, or absorbs the block and frees it.
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

// shipped are the modules a "push name" request may name: the four
// this package ships. Protocol engines are not among them; they sit at
// a conversation's device end.
var shipped = [...]*Qinfo{frameModule, traceModule, batchModule, compressModule}

// lookup finds a module by name.
func lookup(name string) *Qinfo {
	for _, qi := range shipped {
		if qi.Name == name {
			return qi
		}
	}
	return nil
}

// Errors.
var (
	ErrHungup       = vfs.ErrHungup
	ErrClosed       = errors.New("stream closed")
	ErrUnknownMod   = errors.New("push: unknown stream module")
	ErrNothingToPop = errors.New("pop: no module to pop")
	ErrBadModArg    = errors.New("push: bad module argument")
)

// Queue is one direction of one module instance: the module's put
// routine and its place in the chain. The pair (q, q.other) represents
// the instance; Aux carries its state. A queue holds no blocks: the
// stream's one queue is its receive queue, at the device end.
type Queue struct {
	s     *Stream
	qi    *Qinfo
	put   PutFunc
	next  *Queue // next queue in this direction
	other *Queue // reverse-direction queue of the same instance
	Aux   any
}

// Stream returns the stream the queue belongs to.
func (q *Queue) Stream() *Stream { return q.s }

// Other returns the reverse-direction queue of the same instance.
func (q *Queue) Other() *Queue { return q.other }

// PutNext forwards a block to the next module in this direction; put
// routines use it to continue the chain ("the first put routine calls
// the second, the second calls the third, and so on").
func (q *Queue) PutNext(b *Block) {
	if n := q.next; n != nil {
		n.put(n, b)
	}
}

// PassPut forwards every block to the next module unchanged — the
// identity processing module side.
func PassPut(q *Queue, b *Block) { q.PutNext(b) }
