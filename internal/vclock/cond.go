package vclock

import "sync"

// Cond is a clock-aware condition variable. Under the real clock it is
// a sync.Cond; under a virtual clock, Wait parks the machine goroutine
// with the scheduler and Signal/Broadcast move waiters to the run
// queue in FIFO order, so wakeups replay identically run to run.
//
// Under a virtual clock the waiter list is guarded by the token, like
// the rest of the scheduler's state: whoever holds it — a machine
// goroutine or a clock event — may Signal or Broadcast, with L held or
// not. Every engine in this repository signals under its lock anyway.
//
// The zero Cond is not ready for use; call Init (or NewCond).
type Cond struct {
	l sync.Locker
	v *Virtual
	// sc backs the real-clock mode; unused when v != nil.
	sc sync.Cond
	// waiters is the virtual-mode park list, guarded by the token.
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
	c.l = l
	if c.v, _ = ck.(*Virtual); c.v == nil {
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
	v.mightPark(op, c.l)
	g := v.cur(op)
	c.waiters.push(g)
	// L goes before the token does: whoever runs next may want it.
	c.l.Unlock()
	v.park(g)
	c.l.Lock()
}

// Signal wakes the longest-waiting goroutine, if any.
func (c *Cond) Signal() {
	if c.v == nil {
		c.sc.Signal()
		return
	}
	if g := c.waiters.pop(); g != nil {
		c.v.runq.push(g)
	}
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast() {
	if c.v == nil {
		c.sc.Broadcast()
		return
	}
	c.v.runq.take(&c.waiters)
}
