package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Kind tags one trace event. The kinds are shared across protocols so
// netstat and the conformance tests can interpret any conversation's
// trace without protocol-specific code — the same uniformity the file
// tree gives the data path.
type Kind uint8

// Event kinds. A and B are kind-specific small integers (a sequence
// number, a byte count); unused arguments are zero.
const (
	EvNone        Kind = iota
	EvConnect          // conversation dialed (A: 1 on success, 0 on error)
	EvAnnounce         // conversation announced
	EvAccept           // incoming call accepted
	EvSend             // data sent (A: seq, B: bytes)
	EvRecv             // data received in sequence (A: seq, B: bytes)
	EvAck              // acknowledgement received (A: seq)
	EvDup              // duplicate data received (A: seq)
	EvOutOfOrder       // out-of-window or out-of-order data (A: seq)
	EvRetransmit       // retransmission sent (A: seq)
	EvQuery            // IL query / URP enquiry sent
	EvReject           // URP REJ sent (A: expected seq)
	EvHangup           // conversation hung up
	EvFlush            // in-flight RPC flushed / speculative work cancelled
	EvRAHit            // readahead satisfied a read (B: bytes)
	EvRAMiss           // read missed the readahead queue
	EvRACancel         // readahead abandoned (pattern break, error)
	EvWriteBehind      // write-behind fragment issued (B: bytes)
	EvBarrier          // write-behind barrier drained
	EvError            // operation failed
	nKinds
)

var kindNames = [nKinds]string{
	EvNone:        "none",
	EvConnect:     "connect",
	EvAnnounce:    "announce",
	EvAccept:      "accept",
	EvSend:        "send",
	EvRecv:        "recv",
	EvAck:         "ack",
	EvDup:         "dup",
	EvOutOfOrder:  "outoforder",
	EvRetransmit:  "retransmit",
	EvQuery:       "query",
	EvReject:      "reject",
	EvHangup:      "hangup",
	EvFlush:       "flush",
	EvRAHit:       "readahead-hit",
	EvRAMiss:      "readahead-miss",
	EvRACancel:    "readahead-cancel",
	EvWriteBehind: "write-behind",
	EvBarrier:     "barrier",
	EvError:       "error",
}

// String returns the stable ASCII name of the kind, as trace files
// print it.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// RingSize is the number of events a ring retains (a power of two).
const RingSize = 256

// Event is one fixed-size trace record.
type Event struct {
	Seq  uint64        // 1-based emission sequence, monotonic per ring
	When time.Duration // since the ring was enabled, on the clock it was enabled with
	Kind Kind
	A, B int64
}

// slot is one ring entry. seq is the commit word: the writer zeroes
// it, stores the fields, then stores the event's sequence number; a
// reader accepts a record only if seq reads the same expected value
// before and after the field loads.
type slot struct {
	seq  atomic.Uint64
	when atomic.Int64
	kind atomic.Uint32
	a, b atomic.Int64
}

// Ring is a fixed-size lock-free event ring: any number of writers
// Emit concurrently (each claims a slot with one atomic add), readers
// snapshot without stopping them. The zero Ring is valid and disabled;
// a disabled ring's Emit is a single atomic load and no allocation, so
// instrumentation points stay on the hot path permanently and tracing
// is armed per conversation when someone wants to watch. The slots are
// made by the first Enable: every conversation carries a ring, and
// almost none is ever armed.
type Ring struct {
	enabled atomic.Bool
	ck      atomic.Pointer[vclock.Clock] // the clock Enable stamps by
	epoch   atomic.Int64                 // its Unix nanoseconds at Enable
	head    atomic.Uint64
	slots   atomic.Pointer[[RingSize]slot]
}

// Tracer is implemented by conversations (and servers) that carry an
// event ring; the device trees serve a trace file for anything that
// does.
type Tracer interface {
	Trace() *Ring
}

// Enable arms the ring to stamp events by ck, the clock of whatever it
// traces, and resets its epoch: on a virtual clock a trace reads
// simulated time, so same-seed runs write byte-identical trace files.
// Events already recorded remain readable; their When is relative to
// the previous epoch.
func (r *Ring) Enable(ck vclock.Clock) {
	if r.slots.Load() == nil {
		r.slots.CompareAndSwap(nil, new([RingSize]slot))
	}
	r.ck.Store(&ck)
	r.epoch.Store(ck.Now().UnixNano())
	r.enabled.Store(true)
}

// Disable stops recording; the buffered events remain readable.
func (r *Ring) Disable() { r.enabled.Store(false) }

// Emit records one event if the ring is enabled. It is lock-free,
// never blocks, never allocates, and is safe from any number of
// goroutines; when the ring is full the oldest event is overwritten.
func (r *Ring) Emit(k Kind, a, b int64) {
	if !r.enabled.Load() {
		return
	}
	when := (*r.ck.Load()).Now().UnixNano() - r.epoch.Load()
	seq := r.head.Add(1) // 1-based
	s := &r.slots.Load()[(seq-1)%RingSize]
	s.seq.Store(0) // mark torn while the fields change
	s.when.Store(when)
	s.kind.Store(uint32(k))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq) // commit
}

// Events returns the buffered events, oldest first. Records being
// overwritten while the snapshot runs are skipped rather than torn:
// each slot's commit word is checked before and after its fields are
// read.
func (r *Ring) Events() []Event {
	slots := r.slots.Load()
	head := r.head.Load()
	if slots == nil || head == 0 {
		return nil
	}
	lo := uint64(1)
	if head > RingSize {
		lo = head - RingSize + 1
	}
	evs := make([]Event, 0, head-lo+1)
	for seq := lo; seq <= head; seq++ {
		s := &slots[(seq-1)%RingSize]
		if s.seq.Load() != seq {
			continue // not yet committed, or already overwritten
		}
		ev := Event{
			Seq:  seq,
			When: time.Duration(s.when.Load()),
			Kind: Kind(s.kind.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		if s.seq.Load() != seq {
			continue // overwritten while we read it
		}
		evs = append(evs, ev)
	}
	return evs
}

// Kinds returns just the event kinds in order — the shape the
// event-order tests assert against.
func (r *Ring) Kinds() []Kind {
	evs := r.Events()
	ks := make([]Kind, len(evs))
	for i, ev := range evs {
		ks[i] = ev.Kind
	}
	return ks
}

// TraceText renders the ring as the trace file serves it, one event
// per line:
//
//	12 1.042ms retransmit 7 0
//
// (sequence, time since enable, kind, A, B).
func (r *Ring) TraceText() string {
	var b strings.Builder
	for _, ev := range r.Events() {
		fmt.Fprintf(&b, "%d %s %s %d %d\n", ev.Seq, ev.When, ev.Kind, ev.A, ev.B)
	}
	return b.String()
}
