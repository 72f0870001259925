package medium

import (
	"time"

	"repro/internal/vclock"
)

// Delay is a wire's delay line: a FIFO of items, each due at an
// instant, and one clock event armed at the head's. The event hands on
// every item due, head first, and re-arms for the next, so an arrival
// is a function call and no process waits on the line. Nothing
// overtakes — an item due before the one ahead of it (less jitter)
// waits behind it. It is the link of a discrete-event simulator: the
// transmitter's reservation says when the last bit leaves, and the
// line schedules the arrival at that instant plus the propagation
// delay, many items in flight.
type Delay[T any] struct {
	ck    vclock.Clock
	to    arriver[T]
	bound int

	mu     vclock.Lock
	room   vclock.Cond // senders waiting on a full bounded line
	ev     vclock.Timer
	q      []timed[T] // q[head:] is in flight
	head   int
	hand   T     // the item being handed on, or refused
	held   bool  // hand holds an item
	state  uint8 // idle, armed (the event is pending or running) or stalled
	closed bool
}

const (
	idle = iota
	armed
	stalled // the receiver refused the item in hand: Kick restarts the line
)

// arriver takes each item off a line at its instant, reporting false if
// it has no room for it now. A Pipe is one, so the line inside it needs
// no closure to reach it; a func always has room.
type arriver[T any] interface{ arrive(T) bool }

type arriveFunc[T any] func(T)

func (f arriveFunc[T]) arrive(v T) bool { f(v); return true }

type timed[T any] struct {
	v  T
	at time.Time
}

// NewDelay returns a delay line on ck that calls arrive, which must not
// park, with each item at its instant. A bound > 0 caps the items
// waiting on the line; bound <= 0 is unbounded.
func NewDelay[T any](ck vclock.Clock, bound int, arrive func(T)) *Delay[T] {
	d := new(Delay[T])
	d.init(ck, bound, arriveFunc[T](arrive))
	return d
}

// init readies a line held inside its owner, delivering to to.
func (d *Delay[T]) init(ck vclock.Clock, bound int, to arriver[T]) {
	d.ck, d.to, d.bound = ck, to, bound
	d.mu.Init(ck)
	d.room.Init(ck, &d.mu)
}

// Put puts v on the line to arrive at at. It never parks, so a sender
// may hold its own locks across it; false means the line has closed
// (or, bounded, is full) and v is still the caller's.
func (d *Delay[T]) Put(v T, at time.Time) bool { return d.put(v, at, false) }

// Send is Put that parks while a bounded line is full.
func (d *Delay[T]) Send(v T, at time.Time) bool {
	vclock.MightPark(d.ck, "Delay.Send")
	return d.put(v, at, true)
}

// put queues v, arming an idle line's event at its instant: it is the
// head.
func (d *Delay[T]) put(v T, at time.Time, wait bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	full := func() bool { return d.bound > 0 && len(d.q)-d.head >= d.bound }
	for wait && !d.closed && full() {
		d.room.Wait()
	}
	if d.closed || full() {
		return false
	}
	switch {
	case len(d.q) < cap(d.q):
	case d.head > 0 && 2*d.head >= len(d.q): // half is spent: reuse it
		n := copy(d.q, d.q[d.head:])
		clear(d.q[n:])
		d.q, d.head = d.q[:n], 0
	case d.q == nil:
		d.q = make([]timed[T], 0, 4)
	}
	d.q = append(d.q, timed[T]{v, at})
	if d.state == idle {
		d.state = armed
		d.ev.Arm(d.ck, at, d)
	}
	return true
}

// Fire is the line's clock event. The receiver runs with the line
// unlocked, so it may put on this line or another.
func (d *Delay[T]) Fire() {
	now := d.ck.Now()
	d.mu.Lock()
	for !d.closed {
		if !d.held {
			if d.head == len(d.q) {
				d.state = idle
				break
			}
			if at := d.q[d.head].at; at.After(now) {
				d.ev.Arm(d.ck, at, d)
				break
			}
			d.hand, d.held = d.q[d.head].v, true
			d.q[d.head] = timed[T]{}
			if d.head++; d.head == len(d.q) {
				d.q, d.head = d.q[:0], 0
			}
			d.room.Broadcast()
		}
		v := d.hand
		d.mu.Unlock()
		took := d.to.arrive(v)
		d.mu.Lock()
		if !took {
			d.state = stalled
			break
		}
		var zero T
		d.hand, d.held = zero, false
	}
	d.mu.Unlock()
}

// Kick restarts a line whose receiver refused an item, once it has room.
func (d *Delay[T]) Kick() {
	d.mu.Lock()
	if d.state == stalled && !d.closed {
		d.state = armed
		d.ev.Arm(d.ck, d.ck.Now(), d)
	}
	d.mu.Unlock()
}

// Close stops the line and returns what is in flight, head first, for
// the caller to release; nothing arrives after it but an item the
// event is already handing on.
func (d *Delay[T]) Close() (left []T) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.ev.Stop()
	if d.held && d.state == stalled {
		left = append(left, d.hand)
	}
	for _, t := range d.q[d.head:] {
		left = append(left, t.v)
	}
	d.q, d.head = nil, 0
	d.room.Broadcast()
	return left
}
