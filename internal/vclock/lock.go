package vclock

import (
	"fmt"
	"os"
	"sync"
)

// Lock is mutual exclusion that keeps Plan 9's rule that a process
// never parks holding a lock (port/taslock.c counts up->nlocks; sleep
// reports a holder). Bound with Init to a virtual clock, it counts
// itself held by the running process, and every primitive that may
// park — Sleep, SleepUntil, Cond.Wait, Mailbox.Send and Recv,
// WaitGroup.Wait, Mutex.Lock, and whatever calls MightPark — panics on
// entry while that count is not zero, whether or not the call would
// park this time, as it does from a clock event. A race build also
// records where each held Lock was taken, and the panic names it.
//
// On the virtual clock the token is the lock. One process runs at a
// time, none parks holding a Lock, and a clock event runs only once
// every process is parked, so whoever takes a Lock finds it free: a
// bound Lock is the count and nothing else, no atomic and no mutex, and
// no cycle of Locks can deadlock. The count is a plain field of the
// clock that only the token's holder touches, so a goroutine that is
// not the holder taking a bound Lock races on it, and go test -race
// says so: the race suite is the proof that nothing else takes one. A
// held Lock taken again, or a cycle of Locks, would deadlock on the
// real clock, so a race build panics at the second take, and records
// the order in which Locks, each known by where Init bound it, are
// taken, panicking at the first inversion. A lock that must be held
// across a park is a Mutex.
//
// The zero Lock is a plain mutex that counts nothing, as is a Lock
// bound to the real clock; Init binds it.
type Lock struct {
	site lockSite   // its class and where it was taken; race builds only
	mu   sync.Mutex // unused once bound to a virtual clock
	v    *Virtual   // nil: a plain mutex
}

var _ sync.Locker = (*Lock)(nil)

// Init binds l to ck; on any clock but a virtual one it counts
// nothing. It must be called before l is in use.
func (l *Lock) Init(ck Clock) {
	l.v, _ = ck.(*Virtual)
	l.site.bind()
}

// Lock acquires l: on a virtual clock it counts it held by the running
// process, on the real clock it locks its mutex.
func (l *Lock) Lock() {
	if v := l.v; v != nil {
		v.nlocks++
		v.took(l)
		return
	}
	l.mu.Lock()
}

// Unlock releases l.
func (l *Lock) Unlock() {
	if v := l.v; v != nil {
		v.nlocks--
		v.gave(l)
		return
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
