// Corpus for the lock-order check: cycles in the module-wide lock
// acquisition graph, keyed by (type, field). The first pair is the
// cyclone Listen/Close inversion shape; the second goes through a
// call; the third inverts an embedded mutex; the fourth inverts a
// vclock.Mutex against a sync one. The cases after them must stay
// silent: consistent order, two instances of one type, and a local
// mutex (of either kind) have no cross-function identity. Nested
// acquisition as such is not reported under lock-across-send any more —
// only what this check cannot judge (two receivers, one key) and a
// vclock.Mutex under a sync lock. The file ends with a cycle of three.
package lockordercase

import (
	"sync"

	"repro/internal/vclock"
)

type cyclone struct {
	mu    sync.Mutex
	convs []*conv
}

type conv struct {
	mu sync.Mutex
	id int
}

// listen takes device-then-conversation...
func listen(cy *cyclone, c *conv) {
	cy.mu.Lock()
	c.mu.Lock()
	c.id++
	c.mu.Unlock()
	cy.mu.Unlock()
}

// ...and teardown takes conversation-then-device: the classic
// inversion, wedging only on a loaded machine.
func closeConv(cy *cyclone, c *conv) {
	c.mu.Lock()
	cy.mu.Lock() // want lock-order "lock-order cycle"
	cy.mu.Unlock()
	c.mu.Unlock()
}

// --- inversion through a call ---

type registry struct{ mu sync.Mutex }

type session struct{ mu sync.Mutex }

func (r *registry) drop(s *session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.detach() // registry.mu -> session.mu, via the callee
}

func (s *session) detach() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *session) rebind(r *registry) {
	s.mu.Lock()
	r.mu.Lock() // want lock-order "lock-order cycle"
	r.mu.Unlock()
	s.mu.Unlock()
}

// --- inversion against an embedded mutex ---

type hub struct{ sync.Mutex }

func (h *hub) admit(c *conv) {
	h.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	h.Unlock()
}

func expel(h *hub, c *conv) {
	c.mu.Lock()
	h.Lock() // want lock-order "lock-order cycle"
	h.Unlock()
	c.mu.Unlock()
}

// --- inversion against a clock-owned mutex ---

// The 9P server's per-fid lock is a vclock.Mutex (it is held across a
// Walk that may be an RPC); it stays in the lock graph all the same.

type fidTable struct{ mu sync.Mutex }

type fid struct{ mu vclock.Mutex }

func (t *fidTable) attach(f *fid) {
	t.mu.Lock()
	f.mu.Lock() // want lock-across-send "acquiring"
	f.mu.Unlock()
	t.mu.Unlock()
}

func (f *fid) clunk(t *fidTable) {
	f.mu.Lock()
	t.mu.Lock() // want lock-order "lock-order cycle"
	t.mu.Unlock()
	f.mu.Unlock()
}

// --- silent cases ---

var tableMu sync.Mutex

// Consistent order everywhere: tableMu before conv.mu, no cycle.
func addRoute(c *conv) {
	tableMu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	tableMu.Unlock()
}

// Two instances of one type are indistinguishable under (type, field)
// keying, so no lock-order edge is drawn; lock-across-send reports what
// this check cannot judge.
func link(a, b *conv) {
	a.mu.Lock()
	b.mu.Lock() // want lock-across-send "acquiring"
	b.id = a.id
	b.mu.Unlock()
	a.mu.Unlock()
}

// A local mutex has no cross-function identity.
func scratch(c *conv) {
	var mu sync.Mutex
	mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	mu.Unlock()
}

// Nor does a local clock-owned one: the two functions below would be a
// cycle if every bare vclock.Mutex shared one key.
func scratchClockFirst(c *conv, ck vclock.Clock) {
	var mu vclock.Mutex
	mu.Init(ck)
	mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	mu.Unlock()
}

func scratchClockSecond(c *conv, ck vclock.Clock) {
	var mu vclock.Mutex
	mu.Init(ck)
	c.mu.Lock()
	mu.Lock() // want lock-across-send "acquiring"
	mu.Unlock()
	c.mu.Unlock()
}

// --- a cycle of three, no pair of which inverts ---

type ring1 struct{ mu sync.Mutex }
type ring2 struct{ mu sync.Mutex }
type ring3 struct{ mu sync.Mutex }

func oneThenTwo(a *ring1, b *ring2) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func twoThenThree(b *ring2, c *ring3) {
	b.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	b.mu.Unlock()
}

// Reported once, at the last of its three witnesses.
func threeThenOne(c *ring3, a *ring1) {
	c.mu.Lock()
	a.mu.Lock() // want lock-order "lock-order cycle: lockordercase.ring1.mu -> lockordercase.ring2.mu at"
	a.mu.Unlock()
	c.mu.Unlock()
}
