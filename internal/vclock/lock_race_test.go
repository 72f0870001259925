//go:build race

package vclock

import (
	"fmt"
	"strings"
	"testing"
)

// A Lock taken again while it is held hangs a real-clock run, where it
// is a mutex; on the virtual clock it is only a count, so a race build
// panics at the second Lock, naming where the first one took it.
func TestLockTakenTwicePanics(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var l Lock
		l.Init(v)
		l.Lock()
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
					l.Unlock() // the second Lock was counted
				}
			}()
			l.Lock()
			return ""
		}()
		l.Unlock()
		if !strings.HasPrefix(msg, "vclock: the lock taken at vclock.TestLockTakenTwicePanics.func1 (vclock/lock_race_test.go:") ||
			!strings.Contains(msg, " taken again at vclock.TestLockTakenTwicePanics.func1.1 (vclock/lock_race_test.go:") {
			t.Errorf("a held Lock taken again: panic %q, want one naming both places", msg)
		}
		if v.nlocks != 0 || v.held.head != nil {
			t.Errorf("%d Lock(s) counted, list head %p, after both Unlocks; want none", v.nlocks, v.held.head)
		}
	})
}
