package medium

import (
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
	q *vclock.Mailbox[timed[T]]
}

type timed[T any] struct {
	v  T
	at time.Time
}

// NewDelay starts a delay line on ck whose process calls arrive with
// each item at its instant. A bound > 0 caps the items waiting on the
// line; bound <= 0 is unbounded.
func NewDelay[T any](ck vclock.Clock, bound int, arrive func(T)) *Delay[T] {
	d := &Delay[T]{q: vclock.NewMailbox[timed[T]](ck, bound)}
	ck.Go(func() {
		for {
			t, ok := d.q.Recv()
			if !ok {
				return
			}
			ck.SleepUntil(t.at)
			arrive(t.v)
		}
	})
	return d
}

// Put puts v on the line to arrive at at. It never parks, so a sender
// may hold its own locks across it; false means the line has closed
// (or, bounded, is full) and v is still the caller's.
func (d *Delay[T]) Put(v T, at time.Time) bool { return d.q.TrySend(timed[T]{v, at}) }

// Send is Put that parks while a bounded line is full.
func (d *Delay[T]) Send(v T, at time.Time) bool { return d.q.Send(timed[T]{v, at}) == nil }

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
