package vclock

import (
	"fmt"
	"os"
	"sync"
)

// Lock is a sync.Mutex that keeps Plan 9's rule that a process never
// parks holding a lock (port/taslock.c counts up->nlocks; sleep
// reports a holder). Bound with Init to a virtual clock, it counts
// itself held by the running process, and every primitive that may
// park — Sleep, SleepUntil, Cond.Wait, Mailbox.Send and Recv,
// WaitGroup.Wait, Mutex.Lock, and whatever calls MightPark — panics on
// entry while that count is not zero, whether or not the call would
// park this time, as it does from a clock event. A race build also
// records where each held Lock was taken, and the panic names it.
//
// Only one process runs at a time on the virtual clock, and none parks
// holding a Lock, so a Lock there is never contended: its waiters
// never need the clock's help, and no cycle of Locks can deadlock. One
// would on the real clock, so a race build also records the order in
// which Locks, each known by where Init bound it, are taken, and
// panics at the first inversion. A lock that must be held across a
// park is a Mutex.
//
// The zero Lock is a plain mutex that counts nothing; Init binds it.
type Lock struct {
	mu   sync.Mutex
	v    *Virtual // nil: not counted
	site lockSite // its class and where it was taken; race builds only
}

var _ sync.Locker = (*Lock)(nil)

// Init binds l to ck; on any clock but a virtual one it counts
// nothing. It must be called before l is in use.
func (l *Lock) Init(ck Clock) {
	l.v, _ = ck.(*Virtual)
	l.site.bind()
}

// Lock acquires l and counts it held by the running process.
func (l *Lock) Lock() {
	l.mu.Lock()
	if v := l.v; v != nil {
		v.nlocks++
		v.took(l)
	}
}

// Unlock releases l.
func (l *Lock) Unlock() {
	if v := l.v; v != nil {
		v.nlocks--
		v.gave(l)
	}
	l.mu.Unlock()
}

// MightPark is Linux's might_sleep for a function that parks on some
// inputs only: it fails as the park would, now, when the running
// process holds a Lock on ck, so a path fails the first time it runs
// rather than the first time it happens to park. op names the
// function for the message.
func MightPark(ck Clock, op string) {
	if v, ok := ck.(*Virtual); ok {
		v.mightPark(op, nil)
	}
}

// mightPark panics when the running process holds a Lock other than
// own, the one a Cond.Wait lets go of before it parks, and whenever a
// clock event is running: an event has no process to park. v may be
// nil, for the real clock, which counts nothing. The message goes to
// standard error first: a deferred call on the way out that takes a
// lock a frame below it holds would block the panic before Go prints
// it.
func (v *Virtual) mightPark(op string, own sync.Locker) {
	if v == nil || v.nlocks == 0 && !v.inEvent {
		return
	}
	msg := "vclock: a clock event may not park"
	if !v.inEvent {
		if l, ok := own.(*Lock); ok && l.v == v && v.nlocks == 1 {
			return
		}
		msg = "vclock: " + v.heldAcross(op, own)
	}
	fmt.Fprintln(os.Stderr, msg)
	panic(msg)
}
