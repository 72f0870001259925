// Package vclock provides the pluggable clock under the protocol
// engines: a passthrough real-time implementation and a discrete-event
// virtual implementation that advances simulated time to the next
// pending timer whenever every registered goroutine is quiescent.
//
// The virtual clock is a cooperative token scheduler. Goroutines
// created with Clock.Go (and the root function passed to Virtual.Run)
// are "machine goroutines": exactly one runs at a time, and a running
// goroutine keeps the token until it blocks in a vclock primitive —
// Sleep, Cond.Wait, Mailbox send/receive, WaitGroup.Wait, Mutex.Lock.
// When the runnable queue drains, every machine goroutine is parked and
// the scheduler advances virtual time to the earliest pending event (a
// Sleep expiry or AfterFunc). Because hand-off order is a FIFO and timer
// order is a (time, sequence) heap, a fixed seed replays the identical
// interleaving: same wire order, same impairment schedule, same stats.
//
// The price of determinism is that machine goroutines must never block
// on a raw channel, sync.Cond, or sync.WaitGroup that only another
// machine goroutine can satisfy: the scheduler cannot see such a park,
// so the simulation stalls (and, if the waker needs virtual time to
// advance, deadlocks — Run panics when it detects that). A sync.Mutex
// is fine only while no holder parks with it held, so its waits resolve
// without the clock's help; a lock that may be held across a park is a
// Mutex from this package.
package vclock

import "time"

// Clock is the time source threaded through the media and protocol
// engines. Real is the passthrough implementation; NewVirtual returns
// the discrete-event one.
//
// There is deliberately no channel-returning After or Tick: receiving
// from a raw channel is an unannotated park the virtual scheduler
// cannot see. Timer callbacks (AfterFunc) and Sleep cover every timer
// shape the engines use.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// SleepUntil blocks until Now() >= t.
	SleepUntil(t time.Time)
	// AfterFunc runs f after d on its own goroutine (a machine
	// goroutine under the virtual clock).
	AfterFunc(d time.Duration, f func()) *Timer
	// Go starts f on a new goroutine. Under the virtual clock the
	// goroutine is registered with the scheduler; engines must use Go,
	// not the go statement, for any goroutine that blocks in vclock
	// primitives.
	Go(f func())
	// Virtual reports whether this is a discrete-event clock.
	Virtual() bool
}

// Timer is a stoppable pending AfterFunc.
type Timer struct {
	stop func() bool
}

// Stop cancels the timer; it reports whether the call prevented the
// function from running.
func (t *Timer) Stop() bool {
	if t == nil || t.stop == nil {
		return false
	}
	return t.stop()
}

// Or returns ck, or Real when ck is nil — the idiom for defaulting a
// zero Profile or Config field.
func Or(ck Clock) Clock {
	if ck == nil {
		return Real
	}
	return ck
}
