package vclock

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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
			{"Stream.Reserve", func() { MightPark(v, "Stream.Reserve") }},
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

// Several processes share one Lock through every hand-off the clock
// makes: a Cond's Signal and Broadcast, and a Mutex's waiters. Whoever
// holds the Lock finds no one else inside and the count at one, and
// each hand-off wakes its waiters in the order they parked.
func TestLockExcludesAcrossHandOffs(t *testing.T) {
	const n = 4
	v := NewVirtual()
	v.Run(func() {
		var l Lock
		l.Init(v)
		c := NewCond(v, &l)
		var mu Mutex
		mu.Init(v)
		inside, tokens := 0, 0
		var parked, woke []int
		// note takes l and appends who to *to, checking that no one else
		// is inside and that l is the one Lock counted.
		note := func(to *[]int, who int) {
			l.Lock()
			if inside != 0 || v.nlocks != 1 {
				t.Errorf("process %d: %d inside and %d Lock(s) counted on entry, want 0 and 1", who, inside, v.nlocks)
			}
			inside++
			*to = append(*to, who)
			inside--
			l.Unlock()
		}
		round := func(how string, wait func(i int), wake func()) {
			parked, woke = nil, nil
			wg := NewWaitGroup(v)
			for i := range n {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					wait(i)
				})
			}
			v.Sleep(0) // every process runs and parks first
			wake()
			wg.Wait()
			if len(parked) != n || !slices.Equal(woke, parked) {
				t.Errorf("%s: parked in order %v, woke in order %v", how, parked, woke)
			}
			if inside != 0 || v.nlocks != 0 {
				t.Errorf("%s: %d inside and %d Lock(s) counted after the round, want 0 and 0", how, inside, v.nlocks)
			}
		}
		condWait := func(i int) {
			note(&parked, i)
			l.Lock()
			for tokens == 0 {
				c.Wait()
			}
			tokens--
			l.Unlock()
			note(&woke, i)
		}
		round("Cond.Signal", condWait, func() {
			for range n {
				l.Lock()
				tokens++
				c.Signal()
				l.Unlock()
				v.Sleep(0)
			}
		})
		round("Cond.Broadcast", condWait, func() {
			l.Lock()
			tokens = n
			c.Broadcast()
			l.Unlock()
		})
		mu.Lock()
		round("Mutex.Lock", func(i int) {
			note(&parked, i)
			mu.Lock()
			note(&woke, i)
			v.Sleep(time.Millisecond) // a Mutex may be held across a park
			mu.Unlock()
		}, mu.Unlock)
	})
}

// A clock event that parks panics, and the panic unwinds through the
// process that was parking when the scheduler ran it, token in hand:
// the scheduler has no lock of its own to release on the way. That
// process's deferred Unlock of the Lock its Cond.Wait had let go of
// must not turn the panic into a fatal error that hides it, and its
// deferred hand-back passes the token on. The panic ends the process,
// so the scenario runs in a child.
func TestEventPanicSurvivesDeferredUnlock(t *testing.T) {
	if os.Getenv("VCLOCK_EVENT_PARKS") == "1" {
		eventParks()
		return
	}
	out, err := runChild(t, "TestEventPanicSurvivesDeferredUnlock", "VCLOCK_EVENT_PARKS")
	if err == nil || !strings.Contains(out, "panic: vclock: a clock event may not park") || strings.Contains(out, "fatal error") {
		t.Fatalf("child exited with %v, want the event's panic and no fatal error:\n%s", err, out)
	}
}

// eventParks is TestEventPanicSurvivesDeferredUnlock's child. It never
// returns: the event's panic ends the process.
func eventParks() {
	v := NewVirtual()
	v.Run(func() {
		var l Lock
		l.Init(v)
		c := NewCond(v, &l)
		var tm Timer
		tm.Arm(v, v.Now(), &callEvent{func() { v.Sleep(0) }})
		l.Lock()
		defer l.Unlock()
		c.Wait()
	})
	// Run returns once the panicking process hands the token back; the
	// panic then ends the process.
	time.Sleep(time.Hour)
}

// A Lock sits in every conversation and a Mutex in every 9P fid: a
// build without the race detector keeps them two words and four.
func TestLockIsSmall(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("a race build records where each Lock was taken")
	}
	if n, m := unsafe.Sizeof(Lock{}), unsafe.Sizeof(Mutex{}); n > 16 || m > 32 {
		t.Errorf("Lock is %d bytes and Mutex %d, want <= 16 and <= 32", n, m)
	}
}
