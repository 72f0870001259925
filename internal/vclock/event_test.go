package vclock

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
)

// callEvent is an Event that calls f.
type callEvent struct{ f func() }

func (e *callEvent) Fire() { e.f() }

// fireOnce arms a clock event at now that runs body, lets it fire and
// returns what body panicked with, "" if it did not.
func fireOnce(v *Virtual, body func()) (msg string) {
	var t Timer
	ran := false
	t.Arm(v, v.Now(), &callEvent{func() {
		ran = true
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		body()
	}})
	v.Sleep(time.Millisecond)
	if !ran {
		return "the event did not run"
	}
	return msg
}

// A clock event runs on the goroutine that parks, with no process of
// its own, so every primitive that may park fails on entry from one,
// even where this call would not park: the mailbox has room or a
// value, the Mutex is free, the WaitGroup is at zero, the sleep is for
// no time. A Lock is fine: no process parks holding one, so it is
// always free when an event runs.
func TestEventMayNotPark(t *testing.T) {
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
			{"MightPark", func() { MightPark(v, "Stream.Reserve") }},
		} {
			t.Run(tc.op, func(t *testing.T) {
				if msg := fireOnce(v, tc.park); msg != "vclock: a clock event may not park" {
					t.Errorf("%s from a clock event: panic %q, want \"vclock: a clock event may not park\"", tc.op, msg)
				}
			})
		}
		if msg := fireOnce(v, func() { cl.Lock(); c.Broadcast(); cl.Unlock() }); msg != "" {
			t.Errorf("a Lock taken in a clock event panicked: %q", msg)
		}
		if n := mb.Len(); n != 1 {
			t.Errorf("the refused Send and Recv moved the mailbox: %d queued, want 1", n)
		}
		if msg := parkHolding(v, func() { v.Sleep(0) }); msg == "" {
			t.Error("a process holding a Lock may park once an event has run: the event's mark was left set")
		}
	})
}

// A clock event runs in (at, seq) order among the sleepers, at its
// instant, as a function call: the sleeper it wakes is the one that
// parked, so it costs no hand-off.
func TestEventRunsWithoutAHandOff(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var order []string
		var e1, e2 Timer
		e1.Arm(v, v.Now().Add(2*time.Millisecond), &callEvent{func() { order = append(order, fmt.Sprint("e1@", v.Since(Epoch))) }})
		e2.Arm(v, v.Now().Add(time.Millisecond), &callEvent{func() { order = append(order, fmt.Sprint("e2@", v.Since(Epoch))) }})
		s := v.Switches()
		v.Sleep(2 * time.Millisecond)
		order = append(order, "woke")
		if want := []string{"e2@1ms", "e1@2ms", "woke"}; !slices.Equal(order, want) || v.Switches() != s {
			t.Errorf("ran %v in %d hand-offs, want %v in none", order, v.Switches()-s, want)
		}
	})
}

// The typed event heap pops in exactly the order a sort of (at, seq)
// gives, through random pushes, stops and resets, as container/heap
// did.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var seq uint64
	evs := make([]*event, 300)
	for i := range evs {
		evs[i] = &event{index: -1}
	}
	arm := func(ev *event) {
		seq++
		ev.at, ev.seq = rng.Int63n(50), seq
		if ev.index < 0 {
			h.push(ev)
		} else {
			h.fix(ev.index)
		}
	}
	for range 5000 {
		ev := evs[rng.Intn(len(evs))]
		switch rng.Intn(3) {
		case 0, 1:
			arm(ev)
		case 2:
			if ev.index >= 0 {
				h.remove(ev.index)
			}
		}
	}
	var want []*event
	for _, ev := range evs {
		if ev.index >= 0 {
			want = append(want, ev)
		}
	}
	slices.SortFunc(want, func(a, b *event) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	for i, w := range want {
		if ev := h.remove(0); ev != w {
			t.Fatalf("pop %d: (%d, %d), want (%d, %d)", i, ev.at, ev.seq, w.at, w.seq)
		}
	}
	if len(h) != 0 {
		t.Errorf("%d events left after popping all %d", len(h), len(want))
	}
}

// Arming a clock event allocates nothing: the event is the Timer's
// own, and the Event its owner, as a delay line is.
func TestAllocsArmEvent(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := NewVirtual()
	v.Run(func() {
		var tm Timer
		fired := 0
		e := &callEvent{func() { fired++ }}
		if n := testing.AllocsPerRun(100, func() {
			tm.Arm(v, v.Now().Add(time.Microsecond), e)
			v.Sleep(time.Millisecond)
		}); n != 0 {
			t.Errorf("arming and firing a clock event allocates %.1f objects, want 0", n)
		}
		if fired != 101 {
			t.Errorf("the event fired %d times, want 101", fired)
		}
	})
}
