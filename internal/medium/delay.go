package medium

import (
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Delay is a wire's delay line: a FIFO whose one process hands each
// item on at the instant it was put for. Nothing overtakes — an item
// due before the one ahead of it (less jitter) waits behind it. It is
// the link of a discrete-event simulator: the transmitter's reservation
// says when the last bit leaves, and the line schedules the arrival at
// that instant plus the propagation delay, many items in flight.
type Delay[T any] struct {
	ck      vclock.Clock
	q       vclock.Mailbox[timed[T]]
	to      arriver[T]
	started atomic.Bool
}

// arriver takes each item off a line at its instant. A Pipe is one, so
// the line inside it needs no closure to reach it.
type arriver[T any] interface{ arrive(T) }

// arriveFunc is a func as an arriver.
type arriveFunc[T any] func(T)

func (f arriveFunc[T]) arrive(v T) { f(v) }

type timed[T any] struct {
	v  T
	at time.Time
}

// NewDelay returns a delay line on ck whose process calls arrive with
// each item at its instant. The first item on the line starts the
// process, so a line never used costs none. An item already due when
// the process takes it is handed on at once, so a burst of due items
// costs one wake; only an item due later waits on the clock. A bound
// > 0 caps the items waiting on the line; bound <= 0 is unbounded.
func NewDelay[T any](ck vclock.Clock, bound int, arrive func(T)) *Delay[T] {
	d := new(Delay[T])
	d.init(ck, bound, arriveFunc[T](arrive))
	return d
}

// init readies a line held inside its owner, delivering to to.
func (d *Delay[T]) init(ck vclock.Clock, bound int, to arriver[T]) {
	d.ck, d.to = ck, to
	d.q.Init(ck, bound)
}

func (d *Delay[T]) run() {
	for {
		t, ok := d.q.Recv()
		if !ok {
			return
		}
		if t.at.After(d.ck.Now()) {
			d.ck.SleepUntil(t.at)
		}
		d.to.arrive(t.v)
	}
}

// Put puts v on the line to arrive at at. It never parks, so a sender
// may hold its own locks across it; false means the line has closed
// (or, bounded, is full) and v is still the caller's.
func (d *Delay[T]) Put(v T, at time.Time) bool { return d.start(d.q.TrySend(timed[T]{v, at})) }

// Send is Put that parks while a bounded line is full.
func (d *Delay[T]) Send(v T, at time.Time) bool { return d.start(d.q.Send(timed[T]{v, at}) == nil) }

// start starts the line's process once an item is queued on it, and
// returns queued.
func (d *Delay[T]) start(queued bool) bool {
	if queued && !d.started.Load() && d.started.CompareAndSwap(false, true) {
		d.ck.Go(d.run)
	}
	return queued
}

// Close stops the line and returns what is in flight, head first, for
// the caller to release. The one item the process may be waiting out
// still arrives, to a receiver that has closed too.
func (d *Delay[T]) Close() []T {
	var left []T
	for _, t := range d.q.CloseDrain() {
		left = append(left, t.v)
	}
	return left
}
