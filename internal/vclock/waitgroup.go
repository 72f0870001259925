package vclock

// WaitGroup is a clock-aware sync.WaitGroup replacement: Wait parks
// cooperatively under a virtual clock instead of blocking the
// scheduler's token on an invisible sync park.
type WaitGroup struct {
	mu Lock
	c  Cond
	n  int
}

// NewWaitGroup returns a WaitGroup bound to ck (nil means Real).
func NewWaitGroup(ck Clock) *WaitGroup {
	w := new(WaitGroup)
	w.mu.Init(ck)
	w.c.Init(ck, &w.mu)
	return w
}

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n += delta
	if w.n < 0 {
		panic("vclock: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.c.Broadcast()
	}
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait() {
	w.c.v.mightPark("WaitGroup.Wait", nil)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.n > 0 {
		w.c.wait("WaitGroup.Wait")
	}
}
