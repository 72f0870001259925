package vclock

import "time"

// Real is the passthrough clock: system time, system timers, plain
// goroutines.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) Sleep(d time.Duration)           { time.Sleep(d) }

// SleepUntil parks on the runtime timer until t has passed. Go's
// runtime timers resolve well under the media being simulated (an
// Ethernet frame serializes in ~1.2ms), so there is no spin tail: the
// loop re-sleeps on the residual error of each wakeup instead of
// burning a core on runtime.Gosched.
func (realClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		time.Sleep(d)
	}
}

func (realClock) AfterFunc(d time.Duration, f func()) *Timer {
	return &Timer{real: time.AfterFunc(d, f)}
}

func (realClock) Go(f func()) { go f() }
