package vclock

import (
	"context"
	"fmt"
	"os"
	"os/exec"
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

// A Sleep whose event is the next one due resumes its own goroutine,
// but only once the goroutines runnable at the same instant, and the
// same-instant events armed before it, have had their turn.
func TestVirtualSelfResumeKeepsOrder(t *testing.T) {
	v := NewVirtual()
	var order []string
	log := func(s string) { order = append(order, s) }
	v.Run(func() {
		log("root")
		v.AfterFunc(time.Millisecond, func() { log("timer@1ms") })
		v.Go(func() {
			log("a")
			v.Sleep(time.Millisecond)
			log("a@1ms")
		})
		v.Go(func() { log("b") })
		v.Sleep(0) // due now, but a and b are runnable now too
		log("root@0")
		v.Sleep(time.Millisecond) // due with the timer and a, armed last
		log("root@1ms")
		v.Sleep(time.Millisecond) // nothing else pending: no switch
		log("root@2ms")
	})
	want := "root a b root@0 timer@1ms a@1ms root@1ms root@2ms"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %s\nwant      %s", got, want)
	}
}

// Switches counts the token's hand-offs between goroutines: a sleeper
// that is next to run resumes without one, and a round trip through a
// second goroutine costs two.
func TestSwitchesCountsHandOffs(t *testing.T) {
	v := NewVirtual()
	var alone, pingPong int64
	v.Run(func() {
		s := v.Switches()
		for range 3 {
			v.Sleep(time.Millisecond)
		}
		alone = v.Switches() - s
		ping, pong := NewMailbox[int](v, 1), NewMailbox[int](v, 1)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.TrySend(x)
			}
		})
		s = v.Switches()
		for i := range 10 {
			ping.TrySend(i)
			pong.Recv()
		}
		pingPong = v.Switches() - s
		ping.Close()
	})
	if alone != 0 || pingPong != 20 {
		t.Errorf("three lone sleeps switched %d times, ten round trips %d; want 0 and 20", alone, pingPong)
	}
}

// hostGoroutines counts the process's virtual-clock host goroutines,
// and those of them idle on a free list.
func hostGoroutines() (host, idle int) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "vclock.(*Virtual).host(") {
			host++
		}
		if strings.Contains(g, "vclock.(*gor).idle(") {
			idle++
		}
	}
	return host, idle
}

// freeLen is the length of v's free list.
func freeLen(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for g := v.free.head; g != nil; g = g.next {
		n++
	}
	return n
}

// A thousand Gos one after another, each function returning before the
// next Go, run on one host goroutine: each returns to the free list and
// the next Go takes it.
func TestGoReusesIdleGoroutine(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		before, _ := hostGoroutines()
		wg := NewWaitGroup(v)
		for i := 0; i < 1000; i++ {
			wg.Add(1)
			v.Go(wg.Done)
			wg.Wait()
		}
		after, idle := hostGoroutines()
		if n := freeLen(v); n != 1 {
			t.Errorf("%d idle goroutines on the free list, want 1", n)
		}
		if after > before+1 || idle < 1 {
			t.Errorf("host goroutines %d → %d (%d idle) across 1000 Gos, want at most one more", before, after, idle)
		}
	})
}

// waitNoIdle fails t unless every idle host goroutine has ended within
// a host deadline: Run wakes them as it returns, and they end on their
// own threads.
func waitNoIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, idle := hostGoroutines()
		if idle == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d host goroutine(s) still idle after Run returned", idle)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunEndsIdleGoroutines(t *testing.T) {
	t.Run("return", func(t *testing.T) {
		v := NewVirtual()
		v.Run(func() {
			wg := NewWaitGroup(v)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				v.Go(wg.Done)
			}
			wg.Wait()
			if n := freeLen(v); n != 3 {
				t.Errorf("%d idle goroutines before Run returns, want 3", n)
			}
		})
		waitNoIdle(t)
	})
	t.Run("deadlock", func(t *testing.T) {
		v := NewVirtual()
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, "simulation deadlock") {
					t.Errorf("recovered %q, want the deadlock panic", r)
				}
			}()
			v.Run(func() {
				wg := NewWaitGroup(v)
				wg.Add(1)
				v.Go(wg.Done)
				wg.Wait()
				NewMailbox[int](v, 1).Recv() // nothing will ever send
			})
		}()
		waitNoIdle(t)
	})
	t.Run("goexit", func(t *testing.T) {
		v := NewVirtual()
		v.Run(func() {
			wg := NewWaitGroup(v)
			wg.Add(1)
			v.Go(wg.Done)
			wg.Wait()
			if n := freeLen(v); n != 1 {
				t.Errorf("%d idle goroutines, want 1", n)
			}
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				runtime.Goexit()
			})
			if n := freeLen(v); n != 0 {
				t.Errorf("Go left %d idle goroutines, want 0: it did not reuse the idle one", n)
			}
			wg.Wait()
			if n := freeLen(v); n != 0 {
				t.Errorf("a goroutine that left by Goexit is back on the free list (%d)", n)
			}
		})
		waitNoIdle(t)
	})
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

// A goroutine started with a bare go statement parks on a Cond while a
// machine goroutine runs, and takes that goroutine's place. The victim's
// next park must end the process with the not-registered panic; it used
// to panic holding the scheduler's lock, so the victim's deferred
// hand-back waited on that lock and the run hung without a word. A
// regression hangs rather than fails, so the scenario runs in a child
// process under a host deadline.
func TestForeignParkPanics(t *testing.T) {
	if os.Getenv("VCLOCK_FOREIGN_PARK") == "1" {
		foreignPark()
		return
	}
	out, err := runChild(t, "TestForeignParkPanics", "VCLOCK_FOREIGN_PARK")
	if err == nil || !strings.Contains(out, "panic: vclock: Sleep from a goroutine not registered with the virtual clock") {
		t.Fatalf("child exited with %v, want the not-registered panic:\n%s", err, out)
	}
}

// runChild runs the test binary's test name with env set to 1, which
// makes the test play the child, under a host deadline, and returns
// the child's output and how it exited.
func runChild(t *testing.T, name, env string) (string, error) {
	const deadline = 20 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+name+"$")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("the child still ran after %v instead of panicking:\n%s", deadline, out)
	}
	return string(out), err
}

// foreignPark is TestForeignParkPanics' child. It never returns: the
// victim's panic ends the process.
func foreignPark() {
	v := NewVirtual()
	var mu sync.Mutex
	c := NewCond(v, &mu)
	release := make(chan struct{})
	v.Run(func() {
		v.Go(func() {
			parking := make(chan struct{})
			go func() { // never registered with v
				mu.Lock()
				close(parking)
				c.Wait()
			}()
			<-parking
			// The foreign Wait lets go of mu only once it has taken
			// this goroutine's place; its token then lets Run finish
			// with this goroutine still running.
			mu.Lock()
			mu.Unlock()
			<-release
			v.Sleep(time.Millisecond)
		})
	})
	close(release)
	// A pending timer, as in any live program, keeps the runtime's own
	// all-goroutines-asleep check from ending a hang for us.
	time.Sleep(time.Hour)
}

// Parking is the simulator's innermost loop (every hand-off, every
// timer): in steady state a Cond ping-pong, a Mailbox send/receive pair
// and a Sleep allocate nothing, and a Go of a function that returns
// allocates only its closure: it runs on the host goroutine the
// previous round's Go left idle.
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
		ran := 0
		if n := testing.AllocsPerRun(200, func() {
			v.Go(func() { ran++ })
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
		}); n > 1 {
			t.Errorf("park/wake and a Go allocate %.1f objects per round, want at most 1 (the closure)", n)
		}
		if ran != 201 {
			t.Errorf("%d of 201 rounds' Go ran", ran)
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
}
