package vclock

import "sync"

// Mutex is mutual exclusion whose waiters park through the clock, and
// the one lock in this repository that may be held across a park — a
// paced medium write, an RPC, a Sleep. A sync.Mutex there wedges the
// virtual scheduler: the holder is parked waiting for virtual time to
// advance, and a second goroutine blocked in sync.Mutex.Lock never
// yields its scheduler token, so time cannot advance to let the holder
// finish.
//
// Unlock wakes every waiter in arrival order and each rechecks, so
// under a virtual clock the lock goes to the longest waiter unless a
// goroutine that is already running takes it first; same-seed runs
// replay the same hand-offs. The Cond the waiters park on is made by
// the first of them: an uncontended Lock/Unlock pair allocates nothing,
// and a Mutex per object (the 9P server's fids) costs four words.
//
// The zero Mutex is a real-clock lock; Init binds it to another clock.
type Mutex struct {
	mu   sync.Mutex
	v    *Virtual // nil on the real clock
	free *Cond    // made by the first waiter
	held bool
}

var _ sync.Locker = (*Mutex)(nil)

// Init binds an embedded Mutex to ck (nil means Real). It must be
// called before the Mutex is in use.
func (m *Mutex) Init(ck Clock) { m.v, _ = Or(ck).(*Virtual) }

// Lock acquires m, parking through the clock while another goroutine
// holds it.
func (m *Mutex) Lock() {
	m.mu.Lock()
	for m.held {
		if m.free == nil {
			m.free = new(Cond)
			m.free.init(m.v, &m.mu)
		}
		m.free.wait("Mutex.Lock")
	}
	m.held = true
	m.mu.Unlock()
}

// Unlock releases m. As with sync.Mutex, unlocking an unlocked Mutex
// is a bug in the caller.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.held {
		m.mu.Unlock()
		panic("vclock: Unlock of unlocked Mutex")
	}
	m.held = false
	if m.free != nil {
		m.free.Broadcast()
	}
	m.mu.Unlock()
}
