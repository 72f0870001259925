package vclock

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

func TestVirtualSleepOrdering(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.Run(func() {
		wg := NewWaitGroup(v)
		for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
			wg.Add(1)
			d := d
			v.Go(func() {
				defer wg.Done()
				v.Sleep(d)
				order = append(order, d.String())
			})
		}
		wg.Wait()
	})
	got := strings.Join(order, ",")
	if got != "10ms,20ms,30ms" {
		t.Fatalf("wake order = %s, want 10ms,20ms,30ms", got)
	}
}

func TestVirtualTimeAdvancesInstantly(t *testing.T) {
	v := NewVirtual()
	start := time.Now()
	var elapsed time.Duration
	v.Run(func() {
		t0 := v.Now()
		v.Sleep(10 * time.Hour)
		elapsed = v.Since(t0)
	})
	if elapsed != 10*time.Hour {
		t.Fatalf("virtual elapsed = %v, want 10h", elapsed)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("10h virtual sleep took %v of wall clock", wall)
	}
}

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	var at time.Time
	v.Run(func() {
		v.Sleep(time.Second)
		at = v.Now()
	})
	if want := Epoch.Add(time.Second); !at.Equal(want) {
		t.Fatalf("Now = %v, want %v", at, want)
	}
}

func TestVirtualAfterFuncAndStop(t *testing.T) {
	v := NewVirtual()
	var fired []string
	v.Run(func() {
		v.AfterFunc(20*time.Millisecond, func() { fired = append(fired, "kept") })
		stopped := v.AfterFunc(10*time.Millisecond, func() { fired = append(fired, "stopped") })
		if !stopped.Stop() {
			t.Error("Stop before firing reported false")
		}
		if stopped.Stop() {
			t.Error("second Stop reported true")
		}
		v.Sleep(50 * time.Millisecond)
	})
	if strings.Join(fired, ",") != "kept" {
		t.Fatalf("fired = %v, want [kept]", fired)
	}
}

func TestVirtualSameInstantFIFO(t *testing.T) {
	// Timers armed for the same instant fire in arming order, one at a
	// time, each chain run to quiescence before the next.
	v := NewVirtual()
	var order []int
	v.Run(func() {
		for i := 0; i < 5; i++ {
			i := i
			v.AfterFunc(time.Millisecond, func() { order = append(order, i) })
		}
		v.Sleep(2 * time.Millisecond)
	})
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("same-instant order = %v", order)
	}
}

func TestVirtualCondAndMailbox(t *testing.T) {
	v := NewVirtual()
	var got []int
	v.Run(func() {
		mb := NewMailbox[int](v, 2)
		done := NewWaitGroup(v)
		done.Add(1)
		v.Go(func() {
			defer done.Done()
			for {
				x, ok := mb.Recv()
				if !ok {
					return
				}
				got = append(got, x)
				v.Sleep(time.Millisecond) // force the sender to fill the bound
			}
		})
		for i := 1; i <= 5; i++ {
			if err := mb.Send(i); err != nil {
				t.Errorf("Send(%d): %v", i, err)
			}
		}
		mb.Close()
		done.Wait()
		if mb.Send(9) != ErrClosed {
			t.Error("Send on closed mailbox did not return ErrClosed")
		}
	})
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("received = %v", got)
	}
}

func TestMailboxCloseDrain(t *testing.T) {
	mb := NewMailbox[int](nil, 0)
	for i := 0; i < 3; i++ {
		mb.Send(i)
	}
	left := mb.CloseDrain()
	if fmt.Sprint(left) != "[0 1 2]" {
		t.Fatalf("CloseDrain = %v", left)
	}
	if _, ok := mb.Recv(); ok {
		t.Fatal("Recv after CloseDrain returned a value")
	}
	if mb.TrySend(7) {
		t.Fatal("TrySend after close succeeded")
	}
}

func TestRealMailboxBlockingSend(t *testing.T) {
	mb := NewMailbox[int](Real, 1)
	mb.Send(1)
	done := make(chan struct{})
	go func() {
		mb.Send(2) // blocks until the receiver drains
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("bounded Send did not block")
	default:
	}
	if x, ok := mb.Recv(); !ok || x != 1 {
		t.Fatalf("Recv = %d,%v", x, ok)
	}
	<-done
	if x, ok := mb.Recv(); !ok || x != 2 {
		t.Fatalf("Recv = %d,%v", x, ok)
	}
}

func TestVirtualDeterministicInterleaving(t *testing.T) {
	// The full interleaving — not just final state — must replay
	// identically: two producers and a consumer hop between sleeps and
	// a shared mailbox; the observed schedule is compared across runs.
	run := func() string {
		v := NewVirtual()
		var log []string
		v.Run(func() {
			mb := NewMailbox[string](v, 4)
			wg := NewWaitGroup(v)
			for p := 0; p < 2; p++ {
				p := p
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						v.Sleep(time.Duration(1+p) * time.Millisecond)
						mb.Send(fmt.Sprintf("p%d-%d", p, i))
					}
				})
			}
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					s, _ := mb.Recv()
					log = append(log, fmt.Sprintf("%s@%v", s, v.Since(Epoch)))
				}
			})
			wg.Wait()
		})
		return strings.Join(log, " ")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same program, different schedules:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "p0-0@1ms") {
		t.Fatalf("unexpected schedule: %s", a)
	}
}

// The deadlock panic says who is parked on what: the root waits on a
// mailbox nobody sends to while holding the lock a second goroutine
// wants.
func TestVirtualDeadlockPanics(t *testing.T) {
	defer func() {
		r := fmt.Sprint(recover())
		if !strings.Contains(r, "deadlock: 2 machine goroutine(s)") || !strings.HasSuffix(r, ": 1 Mailbox.Recv, 1 Mutex.Lock") {
			t.Fatalf("expected a deadlock panic naming both primitives, got %q", r)
		}
	}()
	v := NewVirtual()
	v.Run(func() {
		var mu Mutex
		mu.Init(v)
		mu.Lock()
		v.Go(mu.Lock)
		mb := NewMailbox[int](v, 1)
		mb.Recv() // nothing will ever send
	})
}

// A clock goroutine that leaves by runtime.Goexit — what t.Fatal does —
// hands its token back like one that returns: Run goes on to the other
// goroutines and comes back.
func TestRunSurvivesGoexit(t *testing.T) {
	v := NewVirtual()
	var after bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.Run(func() {
			v.Go(func() {
				v.Sleep(time.Millisecond)
				runtime.Goexit()
			})
			v.Sleep(time.Second)
			after = true
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked after a clock goroutine called Goexit")
	}
	if !after {
		t.Fatal("the root did not run on after the Goexit")
	}
}

// Parking is the simulator's innermost loop (every hand-off, every
// timer): in steady state a Cond ping-pong, a Mailbox send/receive pair
// and a Sleep allocate nothing.
func TestAllocsParkWake(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := NewVirtual()
	v.Run(func() {
		var mu sync.Mutex
		turn := NewCond(v, &mu)
		ball := false // true: the partner's turn
		req, rep := NewMailbox[int](v, 1), NewMailbox[int](v, 1)
		v.Go(func() {
			mu.Lock()
			for {
				for !ball {
					turn.Wait()
				}
				ball = false
				turn.Broadcast()
				mu.Unlock()
				x, ok := req.Recv()
				if !ok {
					return
				}
				rep.Send(x)
				mu.Lock()
			}
		})
		if n := testing.AllocsPerRun(200, func() {
			mu.Lock()
			ball = true
			turn.Signal()
			for ball {
				turn.Wait()
			}
			mu.Unlock()
			req.Send(1)
			rep.Recv()
			v.Sleep(time.Microsecond)
		}); n != 0 {
			t.Errorf("park/wake allocates %.1f objects per round, want 0", n)
		}
		req.Close()
		mu.Lock()
		ball = true
		turn.Signal()
		mu.Unlock()
	})
}

func TestVirtualSleepUntil(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		target := v.Now().Add(42 * time.Millisecond)
		v.SleepUntil(target)
		if !v.Now().Equal(target) {
			t.Errorf("Now = %v after SleepUntil(%v)", v.Now(), target)
		}
		v.SleepUntil(v.Now().Add(-time.Second)) // past target: no travel back
		if !v.Now().Equal(target) {
			t.Errorf("SleepUntil moved time backwards to %v", v.Now())
		}
	})
}

func TestRealSleepUntilParks(t *testing.T) {
	target := time.Now().Add(20 * time.Millisecond)
	Real.SleepUntil(target)
	if time.Now().Before(target) {
		t.Fatal("SleepUntil returned early")
	}
}

func TestRealSleepUntilPrecision(t *testing.T) {
	for _, d := range []time.Duration{100 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond} {
		target := time.Now().Add(d)
		Real.SleepUntil(target)
		over := time.Since(target)
		if over < 0 {
			t.Errorf("woke %v early for %v", -over, d)
		}
		if over > 2*time.Millisecond {
			t.Errorf("woke %v late for %v", over, d)
		}
	}
	// Past deadlines return immediately.
	start := time.Now()
	Real.SleepUntil(start.Add(-time.Second))
	if time.Since(start) > time.Millisecond {
		t.Error("past deadline slept")
	}
}

func TestRealCondSmoke(t *testing.T) {
	var mu sync.Mutex
	c := NewCond(nil, &mu)
	ready := false
	go func() {
		mu.Lock()
		ready = true
		c.Broadcast()
		mu.Unlock()
	}()
	mu.Lock()
	for !ready {
		c.Wait()
	}
	mu.Unlock()
}

func TestOrDefaultsToReal(t *testing.T) {
	if Or(nil) != Real {
		t.Fatal("Or(nil) != Real")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) != v")
	}
	if Real.Virtual() || !v.Virtual() {
		t.Fatal("Virtual() flags wrong")
	}
}
