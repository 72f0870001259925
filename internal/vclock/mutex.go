package vclock

import "sync"

// Mutex is mutual exclusion whose waiters park through the clock, for
// a lock that may be held across a park — a paced medium write, an
// RPC, a Sleep. (The other such lock is streams' chainLock, whose
// readers hold it across a put chain that may park; it parks its
// waiters through the clock too, on Conds.) A sync.Mutex there wedges the
// virtual scheduler: the holder is parked waiting for virtual time to
// advance, and a second goroutine blocked in sync.Mutex.Lock never
// yields its scheduler token, so time cannot advance to let the holder
// finish.
//
// On a virtual clock the token guards the held flag and the waiters,
// as it guards the scheduler, and the Mutex takes no lock of its own;
// on the real clock it is its sync.Mutex and the held flag. Unlock
// moves every waiter to the run queue in arrival order and each
// rechecks, so the lock goes to the longest waiter unless a goroutine
// that is already running takes it first; same-seed runs replay the
// same hand-offs. The first waiter makes the waiter list: an
// uncontended Lock/Unlock pair allocates nothing, and a Mutex per
// object (the 9P server's fids) costs four words.
//
// The zero Mutex is a real-clock lock; Init binds it to another clock.
type Mutex struct {
	mu      sync.Mutex // the real clock's lock
	v       *Virtual   // nil on the real clock
	waiters *gorList   // made by the first waiter
	held    bool
}

var _ sync.Locker = (*Mutex)(nil)

// Init binds an embedded Mutex to ck (nil means Real). It must be
// called before the Mutex is in use.
func (m *Mutex) Init(ck Clock) { m.v, _ = ck.(*Virtual) }

// Lock acquires m, parking through the clock while another goroutine
// holds it.
func (m *Mutex) Lock() {
	v := m.v
	if v == nil {
		m.mu.Lock()
		m.held = true
		return
	}
	v.mightPark("Mutex.Lock", nil)
	for m.held {
		if m.waiters == nil {
			m.waiters = new(gorList)
		}
		g := v.cur("Mutex.Lock")
		m.waiters.push(g)
		v.park(g)
	}
	m.held = true
}

// Unlock releases m. As with sync.Mutex, unlocking an unlocked Mutex
// is a bug in the caller.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("vclock: Unlock of unlocked Mutex")
	}
	m.held = false
	switch {
	case m.v == nil:
		m.mu.Unlock()
	case m.waiters != nil:
		m.v.runq.take(m.waiters)
	}
}
