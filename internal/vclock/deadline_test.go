package vclock

import (
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// TestVirtualTimerReset: Reset moves a pending timer, re-arms a fired
// one, and a stopped timer stays silent.
func TestVirtualTimerReset(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	v.Run(func() {
		tm := v.AfterFunc(10*time.Millisecond, func() { fired = append(fired, v.Now().Sub(Epoch)) })
		if !tm.Reset(30 * time.Millisecond) {
			t.Error("Reset of a pending timer reported false")
		}
		v.Sleep(40 * time.Millisecond)
		if tm.Reset(10 * time.Millisecond) {
			t.Error("Reset of a fired timer reported true")
		}
		v.Sleep(20 * time.Millisecond)
		tm.Reset(5 * time.Millisecond)
		tm.Stop()
		v.Sleep(10 * time.Millisecond)
	})
	if len(fired) != 2 || fired[0] != 30*time.Millisecond || fired[1] != 50*time.Millisecond {
		t.Fatalf("fired at %v, want [30ms 50ms]", fired)
	}
}

func TestRealTimerReset(t *testing.T) {
	done := make(chan struct{})
	tm := Real.AfterFunc(time.Hour, func() { close(done) })
	if !tm.Reset(time.Millisecond) {
		t.Error("Reset of a pending timer reported false")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a timer Reset to 1ms never ran")
	}
}

// owner is a conversation as far as its deadline can see: something is
// due at at, or nothing is; Fire records when it ran and settles it,
// and so do Die, which gives up on a peer silent for a minute, and End.
type owner struct {
	ck                 Clock
	mu                 sync.Mutex
	at                 time.Time
	fired, died, ended []time.Duration
	d                  Deadline
}

func newOwner(ck Clock) *owner {
	o := &owner{ck: ck}
	o.d.Init(ck, &o.mu, time.Minute, o)
	return o
}

func (o *owner) Due() time.Time { return o.at }
func (o *owner) Fire()          { o.fired = o.settle(o.fired) }
func (o *owner) Die()           { o.died = o.settle(o.died) }
func (o *owner) End()           { o.ended = o.settle(o.ended) }

// settle records the instant in log and leaves nothing due.
func (o *owner) settle(log []time.Duration) []time.Duration {
	o.at = time.Time{}
	return append(log, o.ck.Now().Sub(Epoch))
}

func (o *owner) endAt(at time.Time) {
	o.mu.Lock()
	o.d.End(at)
	o.mu.Unlock()
}

func (o *owner) set(at time.Time) {
	o.mu.Lock()
	o.at = at
	o.d.Update()
	o.mu.Unlock()
}

func (o *owner) armed() time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.d.Armed()
}

// TestDeadlineFiresWhenDue: a deadline that moves later leaves the clock
// alone and is still met exactly; an earlier one re-arms the clock; one
// that goes away leaves nothing pending.
func TestDeadlineFiresWhenDue(t *testing.T) {
	v := NewVirtual()
	o := newOwner(v)
	ms := func(n int) time.Time { return Epoch.Add(time.Duration(n) * time.Millisecond) }
	v.Run(func() {
		o.set(ms(100))
		o.set(ms(200))
		if got := o.armed(); !got.Equal(ms(100)) {
			t.Errorf("a later deadline re-armed the clock for %v, want it left at 100ms", got.Sub(Epoch))
		}
		v.Sleep(250 * time.Millisecond)
		o.set(ms(400))
		o.set(ms(300))
		if got := o.armed(); !got.Equal(ms(300)) {
			t.Errorf("an earlier deadline armed the clock for %v, want 300ms", got.Sub(Epoch))
		}
		v.Sleep(100 * time.Millisecond)
		o.set(ms(500))
		o.set(time.Time{})
		if got := o.armed(); !got.IsZero() {
			t.Errorf("nothing due, yet the clock is armed for %v", got.Sub(Epoch))
		}
		v.Sleep(time.Second)
	})
	if len(o.fired) != 2 || o.fired[0] != 200*time.Millisecond || o.fired[1] != 300*time.Millisecond || len(o.died) != 0 {
		t.Fatalf("fired at %v and died at %v, want fired at [200ms 300ms]", o.fired, o.died)
	}
}

// TestDeadlineDeath: a resend due after the peer has been silent for
// the whole of the death interval is not sent; the owner dies at the
// instant the silence runs out. Hearing from the peer puts it off, and
// nothing outstanding means no death at all.
func TestDeadlineDeath(t *testing.T) {
	v := NewVirtual()
	o := newOwner(v)
	v.Run(func() {
		v.Sleep(2 * time.Minute) // silent, but nothing outstanding
		o.set(v.Now().Add(time.Hour))
		o.mu.Lock()
		o.d.Heard()
		o.d.Update()
		o.mu.Unlock()
		v.Sleep(2 * time.Hour)
	})
	if len(o.died) != 1 || o.died[0] != 3*time.Minute || len(o.fired) != 0 {
		t.Fatalf("died at %v and fired at %v, want died at [3m0s]", o.died, o.fired)
	}
}

// TestDeadlineEnd: the end runs once, at its instant, and before a
// resend due at that instant. With nothing else due the clock waits for
// the end rather than running early, and a later End replaces it.
func TestDeadlineEnd(t *testing.T) {
	v := NewVirtual()
	o := newOwner(v)
	ms := func(n int) time.Time { return Epoch.Add(time.Duration(n) * time.Millisecond) }
	v.Run(func() {
		o.set(ms(100))
		o.endAt(ms(200))
		if got := o.armed(); !got.Equal(ms(100)) {
			t.Errorf("the clock is armed for %v, want 100ms: a resend comes first", got.Sub(Epoch))
		}
		o.set(time.Time{})
		o.endAt(ms(300))
		if got := o.armed(); !got.Equal(ms(300)) {
			t.Errorf("only the end left, yet the clock is armed for %v, want 300ms", got.Sub(Epoch))
		}
		v.Sleep(350 * time.Millisecond)
		o.set(ms(500))
		o.endAt(ms(500))
		v.Sleep(time.Second)
	})
	if len(o.ended) != 2 || o.ended[0] != 300*time.Millisecond || o.ended[1] != 500*time.Millisecond || len(o.fired) != 0 {
		t.Fatalf("ended at %v and fired at %v, want ended at [300ms 500ms]", o.ended, o.fired)
	}
}

// TestDeadlineOnRealClock: the same discipline on system timers.
func TestDeadlineOnRealClock(t *testing.T) {
	o := newOwner(Real)
	o.set(time.Now().Add(time.Hour))
	o.set(time.Now().Add(time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for {
		o.mu.Lock()
		n := len(o.fired)
		o.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a deadline brought forward to 1ms never fired")
		}
		time.Sleep(time.Millisecond)
	}
	o.set(time.Time{})
	if !o.armed().IsZero() {
		t.Error("nothing due, yet the clock is armed")
	}
}

// TestAllocsDeadlineInit: readying a conversation's deadline allocates
// nothing — it takes its owner as an interface over the conversation,
// not as closures made for it.
func TestAllocsDeadlineInit(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	o := &owner{ck: Real}
	if n := testing.AllocsPerRun(100, func() {
		o.d.Init(o.ck, &o.mu, time.Minute, o)
	}); n != 0 {
		t.Errorf("Deadline.Init allocates %.1f objects, want 0", n)
	}
}

// TestAllocsDeadlineUpdate: moving a deadline later, earlier, or away,
// or setting its end, allocates nothing — the timer is stopped and reset
// in place.
func TestAllocsDeadlineUpdate(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := NewVirtual()
	o := newOwner(v)
	v.Run(func() {
		if n := testing.AllocsPerRun(200, func() {
			now := v.Now()
			o.endAt(now.Add(3 * time.Second))
			o.set(now.Add(time.Second))
			o.set(now.Add(2 * time.Second))
			o.set(now.Add(time.Millisecond))
			o.set(time.Time{})
			v.Sleep(time.Microsecond)
		}); n != 0 {
			t.Errorf("re-arming a deadline allocates %.1f objects, want 0", n)
		}
	})
}

// TestAllocsDeadlineFirstArm: a conversation's first resend arms its
// deadline's clock timer without allocating — the timer is held inside
// the Deadline and runs it as a task, not through a closure made for it.
func TestAllocsDeadlineFirstArm(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := NewVirtual()
	o := &owner{ck: v}
	v.Run(func() {
		if n := testing.AllocsPerRun(200, func() {
			o.d = Deadline{} // stopped below, so no event points into it
			o.d.Init(v, &o.mu, time.Minute, o)
			o.set(v.Now().Add(time.Second))
			o.set(time.Time{})
		}); n != 0 {
			t.Errorf("arming a fresh deadline allocates %.1f objects, want 0", n)
		}
	})
}
