package vclock

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// Under the virtual clock a Mutex held across a Sleep hands off to its
// waiters in arrival order, and the waiters park where the scheduler
// can see them: with a sync.Mutex here the second Lock would hold the
// token and virtual time could never reach the holder's wake-up.
func TestMutexHandsOffFIFOUnderVirtual(t *testing.T) {
	v := NewVirtual()
	var order []string
	var elapsed time.Duration
	v.Run(func() {
		var mu Mutex
		mu.Init(v)
		t0 := v.Now()
		wg := NewWaitGroup(v)
		mu.Lock()
		for i := range 5 {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				mu.Lock()
				order = append(order, fmt.Sprint(i))
				v.Sleep(time.Millisecond) // held across a park
				mu.Unlock()
			})
		}
		v.Sleep(time.Millisecond) // all five queue behind the root
		mu.Unlock()
		wg.Wait()
		elapsed = v.Since(t0)
	})
	if got := fmt.Sprint(order); got != "[0 1 2 3 4]" {
		t.Errorf("hand-off order = %s, want [0 1 2 3 4]", got)
	}
	if elapsed != 6*time.Millisecond {
		t.Errorf("six 1 ms holds took %v of virtual time", elapsed)
	}
}

// Under the real clock the Mutex is mutual exclusion like any other;
// the unguarded counter is the race detector's probe.
func TestMutexExcludesUnderReal(t *testing.T) {
	var mu Mutex
	mu.Init(nil)
	const workers, rounds = 8, 200
	n := 0
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				mu.Lock()
				n++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if n != workers*rounds {
		t.Errorf("counter = %d, want %d", n, workers*rounds)
	}
}

func TestMutexUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unlock of an unlocked Mutex did not panic")
		}
	}()
	var mu Mutex
	mu.Init(nil)
	mu.Unlock()
}

// The lock sits on every 9P request and reply: taking it uncontended
// must cost no allocation on either clock.
func TestAllocsMutexUncontended(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, ck := range []Clock{Real, NewVirtual()} {
		var mu Mutex
		mu.Init(ck)
		if n := testing.AllocsPerRun(100, func() {
			mu.Lock()
			mu.Unlock()
		}); n != 0 {
			t.Errorf("virtual=%v: uncontended Lock/Unlock allocates %.1f", ck.Virtual(), n)
		}
	}
}
