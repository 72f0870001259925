package vclock

import "sync"

// Cond is a clock-aware condition variable. Under the real clock it is
// a sync.Cond; under a virtual clock, Wait parks the machine goroutine
// with the scheduler and Signal/Broadcast move waiters to the run
// queue in FIFO order, so wakeups replay identically run to run.
//
// Unlike sync.Cond, the virtual implementation requires L to be held
// for Signal and Broadcast as well as Wait (the waiter list is guarded
// by L). Every engine in this repository already signals under its
// lock, which is the usual discipline anyway.
//
// The zero Cond is not ready for use; call Init (or NewCond).
type Cond struct {
	l sync.Locker
	v *Virtual
	// sc backs the real-clock mode; unused when v != nil.
	sc sync.Cond
	// waiters is the virtual-mode park list, guarded by l.
	waiters gorList
}

// NewCond returns a Cond bound to ck (nil means Real) and l.
func NewCond(ck Clock, l sync.Locker) *Cond {
	c := new(Cond)
	c.Init(ck, l)
	return c
}

// Init prepares an embedded Cond in place, avoiding the separate
// allocation of NewCond. It must be called before any other method
// and never after the Cond is in use.
func (c *Cond) Init(ck Clock, l sync.Locker) {
	v, _ := Or(ck).(*Virtual)
	c.init(v, l)
}

// init is Init with the clock already told apart: nil means Real.
func (c *Cond) init(v *Virtual, l sync.Locker) {
	c.l = l
	if v != nil {
		c.v = v
	} else {
		c.sc.L = l
	}
}

// Wait atomically releases L and parks until woken, then re-acquires
// L. As with sync.Cond, callers loop over their predicate.
func (c *Cond) Wait() { c.wait("Cond.Wait") }

// wait is Wait under the name of the primitive built on the Cond, for
// the deadlock report.
func (c *Cond) wait(op string) {
	if c.v == nil {
		c.sc.Wait()
		return
	}
	v := c.v
	v.mu.Lock()
	g := v.curLocked(op)
	c.waiters.push(g)
	v.running = nil
	v.mu.Unlock()
	c.l.Unlock()
	v.parked <- struct{}{}
	<-g.wake
	c.l.Lock()
}

// Signal wakes the longest-waiting goroutine, if any. L must be held
// under a virtual clock.
func (c *Cond) Signal() {
	if c.v == nil {
		c.sc.Signal()
		return
	}
	g := c.waiters.pop()
	if g == nil {
		return
	}
	v := c.v
	v.mu.Lock()
	v.runq.push(g)
	v.mu.Unlock()
}

// Broadcast wakes all waiters in FIFO order. L must be held under a
// virtual clock.
func (c *Cond) Broadcast() {
	if c.v == nil {
		c.sc.Broadcast()
		return
	}
	if c.waiters.head == nil {
		return
	}
	v := c.v
	v.mu.Lock()
	v.runq.take(&c.waiters)
	v.mu.Unlock()
}
