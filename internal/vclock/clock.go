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
// Sleep expiry, an AfterFunc, or a clock event such as a delay line's
// arrival, which the scheduler runs itself as a function call, with no
// process and no hand-off). Because hand-off order is a FIFO and timer
// order is a (time, sequence) heap, a fixed seed replays the identical
// interleaving: same wire order, same impairment schedule, same stats.
//
// The price of determinism is that machine goroutines must never block
// on a raw channel, sync.Cond, or sync.WaitGroup that only another
// machine goroutine can satisfy: the scheduler cannot see such a park,
// so the simulation stalls (and, if the waker needs virtual time to
// advance, deadlocks — Run panics when it detects that). A mutex is
// fine only while no holder parks with it held, so its waits resolve
// without the clock's help: a Lock is such a mutex, and the clock
// fails a park entered with one held. On a virtual clock the token
// already excludes every other process, so a bound Lock is only that
// count: no atomic, no mutex. The token guards the scheduler too: only
// its holder touches the run queue, the event heap and the clock, and
// the scheduler takes no lock of its own. A lock that may be held
// across a park is a Mutex.
package vclock

import "time"

// Clock is the time source threaded through the media and protocol
// engines. Real is the passthrough implementation; NewVirtual returns
// the discrete-event one.
//
// There is deliberately no channel-returning After or Tick: receiving
// from a raw channel is an unannotated park the virtual scheduler
// cannot see. A Timer (an AfterFunc, a Deadline's own timer, or a
// clock event armed with Timer.Arm) and Sleep cover every timer shape
// the engines use.
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
}

// Timer is a pending AfterFunc, a Deadline's timer, or a clock event
// armed with Arm, on one clock or the other.
type Timer struct {
	real *time.Timer
	v    *Virtual
	ev   event
}

// Stop cancels the timer; it reports whether the call prevented the
// function from running.
func (t *Timer) Stop() bool {
	switch {
	case t == nil:
		return false
	case t.v == nil:
		return t.real != nil && t.real.Stop()
	case t.ev.index < 0:
		return false
	}
	t.v.events.remove(t.ev.index)
	return true
}

// Reset schedules the function to run d from now, whether or not it
// has run or been stopped; it reports whether the timer was pending.
// It allocates nothing.
func (t *Timer) Reset(d time.Duration) bool {
	if v := t.v; v != nil {
		return v.arm(&t.ev, v.now+int64(d))
	}
	return t.real.Reset(d)
}

// Event is the body of a clock event: a function call at an instant
// that, unlike a process, never parks. A delay line is one.
type Event interface{ Fire() }

// Arm (re)arms t to run e at at as a clock event. On the virtual clock
// the scheduler runs e itself, on the goroutine that is switching, once
// every process is parked: e may wake processes, take a Lock and arm
// events, and a primitive that would park panics ("a clock event may
// not park"). On the real clock a runtime timer runs e.
func (t *Timer) Arm(ck Clock, at time.Time, e Event) { t.arm(ck, at, event{h: e}) }

// arm (re)arms t in place to run ev's body at at. On the virtual clock
// the event is t's own, so a timer held inside its owner costs no
// allocation of its own, and a body over the owner no closure.
func (t *Timer) arm(ck Clock, at time.Time, ev event) {
	v, ok := ck.(*Virtual)
	switch {
	case ok:
		if t.v == nil {
			ev.index = -1
			t.v, t.ev = v, ev
		}
		v.arm(&t.ev, int64(at.Sub(Epoch)))
	case t.real != nil:
		t.real.Reset(at.Sub(ck.Now()))
	case ev.h != nil:
		t.real = time.AfterFunc(at.Sub(ck.Now()), ev.h.Fire)
	default:
		t.real = time.AfterFunc(at.Sub(ck.Now()), ev.fn.run)
	}
}

// Or returns ck, or Real when ck is nil. Only medium.NewPipe and cs.New
// default a zero clock this way, for the host-cost probes that build
// them without one; every other constructor wants its clock named.
func Or(ck Clock) Clock {
	if ck == nil {
		return Real
	}
	return ck
}
