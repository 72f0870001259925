package vclock

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
)

// parkHolding runs park with a Lock held and returns what it panicked
// with, "" if it did not.
func parkHolding(v *Virtual, park func()) (msg string) {
	var l Lock
	l.Init(v)
	l.Lock()
	defer l.Unlock()
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	park()
	return ""
}

// Every primitive that may park fails on entry while the running
// process holds a Lock, even where this call would not park: the
// mailbox has room or a value, the Mutex is free, the WaitGroup is at
// zero, the sleep is for no time. A race build names where the lock
// was taken.
func TestLockHeldAcrossParkPanics(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		mb := NewMailbox[int](v, 4)
		mb.Send(1)
		var mu Mutex
		mu.Init(v)
		wg := NewWaitGroup(v)
		var cl Lock
		cl.Init(v)
		c := NewCond(v, &cl)
		for _, tc := range []struct {
			op   string
			park func()
		}{
			{"Sleep", func() { v.Sleep(0) }},
			{"SleepUntil", func() { v.SleepUntil(v.Now()) }},
			{"Mailbox.Send", func() { mb.Send(2) }},
			{"Mailbox.Recv", func() { mb.Recv() }},
			{"WaitGroup.Wait", wg.Wait},
			{"Mutex.Lock", func() { mu.Lock(); mu.Unlock() }},
			{"Cond.Wait", func() { cl.Lock(); defer cl.Unlock(); c.Wait() }},
			{"Stream.DeviceUp", func() { MightPark(v, "Stream.DeviceUp") }},
		} {
			msg := parkHolding(v, tc.park)
			if !strings.Contains(msg, " held across "+tc.op) {
				t.Errorf("%s with a Lock held: panic %q, want one naming %s", tc.op, msg, tc.op)
			}
			if block.RaceEnabled && !strings.Contains(msg, "the lock taken at vclock.parkHolding (vclock/lock_test.go:") {
				t.Errorf("%s: panic %q does not name where the lock was taken", tc.op, msg)
			}
		}
		if n := mb.Len(); n != 1 {
			t.Errorf("the refused Send and Recv moved the mailbox: %d queued, want 1", n)
		}
	})
}

// A Cond's own Lock is let go before the Cond parks, so waiting with
// only it held is the ordinary use; a lock that stays held panics.
func TestCondWaitLetsGoOfItsOwnLock(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var l Lock
		l.Init(v)
		c := NewCond(v, &l)
		woke := false
		v.Go(func() {
			l.Lock()
			woke = true
			c.Signal()
			l.Unlock()
		})
		l.Lock()
		for !woke {
			c.Wait()
		}
		l.Unlock()
		if v.nlocks != 0 {
			t.Errorf("%d Locks counted held after the wait, want 0", v.nlocks)
		}
	})
}

// Two Locks taken in both orders, one way and then the other, by one
// process: neither run deadlocks, and on the virtual clock none could,
// but on the real clock two processes meeting in them would. A race
// build records the order each class was taken in and fails the second
// way round, naming both.
func TestLockOrderInversionPanics(t *testing.T) {
	if !block.RaceEnabled {
		t.Skip("only a race build records the lock order")
	}
	v := NewVirtual()
	v.Run(func() {
		var a, b Lock
		a.Init(v)
		b.Init(v)
		a.Lock()
		b.Lock()
		b.Unlock()
		a.Unlock()
		msg := func() (msg string) {
			b.Lock()
			defer b.Unlock()
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
					a.Unlock()
				}
			}()
			a.Lock()
			a.Unlock()
			return ""
		}()
		if !strings.Contains(msg, "lock order inversion") || strings.Count(msg, "vclock/lock_test.go:") < 4 {
			t.Errorf("a taken under b after b under a: panic %q, want an inversion naming both locks and both ways round", msg)
		}
	})
}

// A callee that lets go of its caller's Lock around a park, and takes
// it back after, parks holding nothing: it passes.
func TestCalleeUnlocksAroundPark(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var l Lock
		l.Init(v)
		mb := NewMailbox[int](v, 1)
		v.Go(func() { mb.Send(1) })
		sendUnlocked := func() { // called with l held
			l.Unlock()
			defer l.Lock()
			mb.Recv()
			v.Sleep(time.Millisecond)
		}
		l.Lock()
		sendUnlocked()
		l.Unlock()
	})
}

// A Mutex is the lock that may be held across a park.
func TestMutexHeldAcrossParkPasses(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var mu Mutex
		mu.Init(v)
		mu.Lock()
		v.Sleep(time.Millisecond)
		mb := NewMailbox[int](v, 1)
		mb.Send(1)
		mb.Recv()
		mu.Unlock()
	})
}

// A Lock on the real clock, or one never bound, counts nothing.
func TestUnboundLockCountsNothing(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var real, zero Lock
		real.Init(Real)
		real.Lock()
		zero.Lock()
		v.Sleep(0)
		zero.Unlock()
		real.Unlock()
	})
}

// The lock sits on every conversation's paths: taking it uncontended
// must cost no allocation on either clock.
func TestAllocsLockUncontended(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, ck := range []Clock{Real, NewVirtual()} {
		var l Lock
		l.Init(ck)
		if n := testing.AllocsPerRun(100, func() {
			l.Lock()
			l.Unlock()
		}); n != 0 {
			t.Errorf("%T: uncontended Lock/Unlock allocates %.1f", ck, n)
		}
	}
}
