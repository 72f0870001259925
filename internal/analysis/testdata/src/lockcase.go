// Corpus for the lock-across-send check. Each `want` comment asserts
// one diagnostic at that exact line.
package lockcase

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

type box struct {
	mu sync.Mutex
	ch chan int
}

func sendWhileLocked(b *box) {
	b.mu.Lock()
	b.ch <- 1 // want lock-across-send "channel send while holding b.mu"
	b.mu.Unlock()
}

func recvWhileLocked(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want lock-across-send "channel receive while holding b.mu"
}

func selectWhileLocked(b *box, done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want lock-across-send "select while holding b.mu"
	case <-done:
	}
}

func sleepWhileLocked(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want lock-across-send "time.Sleep while holding b.mu" // want realtime "use ck.Sleep"
	b.mu.Unlock()
}

func waitWhileLocked(b *box, wg *sync.WaitGroup) {
	b.mu.Lock()
	wg.Wait() // want lock-across-send "sync.WaitGroup.Wait while holding b.mu"
	b.mu.Unlock()
}

func rangeWhileLocked(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.ch { // want lock-across-send "range over channel while holding b.mu"
		_ = v
	}
}

type pair struct {
	a, b sync.Mutex
}

func inversion(p *pair) {
	p.a.Lock()
	p.b.Lock() // two keys, pair.a then pair.b: the order is lock-order's to judge
	p.b.Unlock()
	p.a.Unlock()
}

type rbox struct {
	mu sync.RWMutex
	ch chan int
}

func rlockSend(r *rbox) {
	r.mu.RLock()
	r.ch <- 1 // want lock-across-send "channel send while holding r.mu"
	r.mu.RUnlock()
}

// A sync lock held across one of the virtual clock's direct parks: the
// holder yields its token, the next goroutine to want the lock blocks
// where the scheduler cannot see it, and simulated time stops. These
// are the shapes of the 9P server's reply lock (PR 8) and the transport
// write lock before they became a vclock.Mutex.

type vbox struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	vmu vclock.Mutex
	ck  vclock.Clock
	mb  *vclock.Mailbox[int]
	wg  *vclock.WaitGroup
}

func pacedWriteWhileLocked(b *vbox, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ck.Sleep(d) // want lock-across-send "vclock.Clock.Sleep while holding b.mu"
}

func sleepUntilWhileRLocked(b *vbox, t time.Time) {
	b.rw.RLock()
	b.ck.SleepUntil(t) // want lock-across-send "vclock.Clock.SleepUntil while holding b.rw"
	b.rw.RUnlock()
}

func virtualSleepWhileLocked(b *vbox, v *vclock.Virtual) {
	b.mu.Lock()
	v.Sleep(time.Second) // want lock-across-send "vclock.Virtual.Sleep while holding b.mu"
	b.mu.Unlock()
}

func mailboxWhileLocked(b *vbox) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mb.Send(1)        // want lock-across-send "vclock.Mailbox.Send while holding b.mu"
	v, _ := b.mb.Recv() // want lock-across-send "vclock.Mailbox.Recv while holding b.mu"
	return v
}

func clockWaitGroupWhileLocked(b *vbox) {
	b.mu.Lock()
	b.wg.Wait() // want lock-across-send "vclock.WaitGroup.Wait while holding b.mu"
	b.mu.Unlock()
}

func clockMutexWhileLocked(b *vbox) {
	b.mu.Lock()
	b.vmu.Lock() // want lock-across-send "acquiring b.vmu while holding b.mu"
	b.vmu.Unlock()
	b.mu.Unlock()
}

func lockUnderClockMutex(b *vbox) {
	b.vmu.Lock()
	defer b.vmu.Unlock()
	b.mu.Lock() // want lock-order "lock-order cycle"
	b.mu.Unlock()
}

// The rest must stay silent.

// A vclock.Mutex is the lock that may be held across a park.
func parkUnderClockMutex(b *vbox, d time.Duration) {
	b.vmu.Lock()
	defer b.vmu.Unlock()
	b.ck.Sleep(d)
	b.mb.Send(1)
	b.wg.Wait()
}

func nonParkingClockCallsWhileLocked(b *vbox) time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mb.TrySend(1)
	b.mb.TryRecv()
	b.wg.Add(1)
	b.wg.Done()
	return b.ck.Now()
}

func clockCondWaitReleases(b *vbox) {
	c := vclock.NewCond(b.ck, &b.mu)
	b.mu.Lock()
	c.Wait() // Cond.Wait releases its locker
	b.mu.Unlock()
}

func unlockBeforeSend(b *box) {
	b.mu.Lock()
	b.mu.Unlock()
	b.ch <- 1 // released first
}

func nonBlockingSelect(b *box, done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-done:
	default: // cannot block
	}
}

func condWaitReleases(b *box) {
	c := sync.NewCond(&b.mu)
	b.mu.Lock()
	c.Wait() // Cond.Wait releases its locker
	b.mu.Unlock()
}

func branchLocalLock(b *box, hot bool) {
	if hot {
		b.mu.Lock()
		b.mu.Unlock()
	}
	b.ch <- 1 // no lock held on this path
}

func sendInNestedLiteral(b *box) func() {
	b.mu.Lock()
	defer b.mu.Unlock()
	return func() {
		b.ch <- 1 // runs after the region; analyzed as its own body
	}
}

// The read-mostly snapshot idiom: writers rebuild the map under mu
// and republish it with an atomic store; readers never lock. The
// store cannot block, so holding mu across it is fine — but parking
// on a channel during the republish is the jam that froze a whole
// switch's worth of dialers.

type snapTable struct {
	mu   sync.Mutex
	snap atomic.Pointer[map[int]int]
	note chan struct{}
}

func republishUnderLock(st *snapTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.snap.Load()
	next := make(map[int]int, len(*old))
	for k, v := range *old {
		next[k] = v
	}
	next[1] = 1
	st.snap.Store(&next) // atomic store is non-blocking: silent
}

func republishThenNotifyLocked(st *snapTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	next := map[int]int{1: 1}
	st.snap.Store(&next)
	st.note <- struct{}{} // want lock-across-send "channel send while holding st.mu"
}

// --- the transitive rule: a sync lock held across a call that may park ---

// None of the five sites that froze a virtual-clock run was a direct
// park: each reached one through an interface call. The shapes, in the
// order they were met; each finding carries the chain down to the park.

// PR 8: the 9P server's reply lock across the transport's WriteMsg,
// which sleeps for the medium's pacing.
type msgConn interface{ WriteMsg(p []byte) error }

type pacedConn struct{ ck vclock.Clock }

func (c *pacedConn) WriteMsg(p []byte) error {
	c.ck.Sleep(time.Duration(len(p)) * time.Microsecond)
	return nil
}

type srvConn struct {
	wmu  sync.Mutex
	conn msgConn
}

func (s *srvConn) reply(p []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.conn.WriteMsg(p) // want lock-across-send "call may park while holding s.wmu (locked at line 262): lockcase.pacedConn.WriteMsg: vclock.Clock.Sleep"
}

// PR 9: the protocol device's lock across hanging up a refused call,
// whose Close waits for the peer.
type protoConn interface{ Close() error }

type urpConn struct{ done *vclock.WaitGroup }

func (c *urpConn) Close() error {
	c.done.Wait()
	return nil
}

type netDev struct {
	mu    sync.Mutex
	convs []protoConn
}

func (d *netDev) adopt(c protoConn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.convs) == cap(d.convs) {
		c.Close() // want lock-across-send "call may park while holding d.mu (locked at line 284): lockcase.urpConn.Close: vclock.WaitGroup.Wait"
		return
	}
	d.convs = append(d.convs, c)
}

// PR 21: the 9P client's write lock across an io.Writer whose
// implementer, in the module, queues through a mailbox.
type writer interface{ Write(p []byte) (int, error) }

type dataFile struct{ out *vclock.Mailbox[int] }

func (f *dataFile) Write(p []byte) (int, error) {
	f.out.Send(len(p))
	return len(p), nil
}

type client struct {
	wmu sync.Mutex
	rwc writer
}

func (c *client) send(p []byte) {
	c.wmu.Lock()
	c.rwc.Write(p) // want lock-across-send "call may park while holding c.wmu (locked at line 310): lockcase.dataFile.Write: vclock.Mailbox.Send"
	c.wmu.Unlock()
}

// PR 21: the mount driver's per-handle lock across reaping a window of
// RPCs — two calls down to the reply mailbox.
type reaper interface{ Reap() int }

type window struct{ replies *vclock.Mailbox[int] }

func (w *window) wait() int {
	v, _ := w.replies.Recv()
	return v
}

func (w *window) Reap() int { return w.wait() }

type handle struct {
	mu  sync.Mutex
	win reaper
}

func (h *handle) read() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.win.Reap() // want lock-across-send "call may park while holding h.mu (locked at line 334): lockcase.window.Reap → lockcase.window.wait: vclock.Mailbox.Recv"
}

// PR 21: the 9P server's per-fid lock across node.Walk, an RPC when the
// node is a mount. The implementer takes a vclock.Mutex: its Lock parks.
type node interface {
	Walk(name string) (node, error)
}

type mntNode struct{ mu vclock.Mutex }

func (n *mntNode) Walk(name string) (node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n, nil
}

type srvFid struct {
	mu   sync.Mutex
	node node
}

func (f *srvFid) walk(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.node.Walk(name) // want lock-across-send "call may park while holding f.mu (locked at line 359): lockcase.mntNode.Walk: vclock.Mutex.Lock"
	return err
}

// The fix for all five: the same call under a vclock.Mutex is silent.
type fixedFid struct {
	mu   vclock.Mutex
	node node
}

func (f *fixedFid) walk(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.node.Walk(name)
	return err
}

// A deferred call runs before the deferred Unlock registered above it.
func deferredCloseUnderLock(d *netDev, c protoConn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer c.Close() // want lock-across-send "call may park while holding d.mu"
}

// Cond.Wait releases its own locker and nothing else: with that one
// lock held it is silent (above); with a second it is not.
type twoLocks struct {
	mu    sync.Mutex
	outer sync.Mutex
	ready vclock.Cond
}

func condWaitUnderSecondLock(t *twoLocks) {
	t.outer.Lock()
	defer t.outer.Unlock()
	t.mu.Lock()
	t.ready.Wait() // want lock-across-send "vclock.Cond.Wait with 2 locks held (t.outer taken at line 394 first)"
	t.mu.Unlock()
}

// A function that waits on a condition may park, for its callers.
func (t *twoLocks) await() {
	t.mu.Lock()
	t.ready.Wait()
	t.mu.Unlock()
}

func awaitUnderLock(t *twoLocks) {
	t.outer.Lock()
	t.await() // want lock-across-send "call may park while holding t.outer (locked at line 409): lockcase.twoLocks.await: vclock.Cond.Wait"
	t.outer.Unlock()
}

// Nested acquisition: two receivers with one graph key are what
// lock-order cannot tell apart, so that case is reported here; two keys
// (inversion, above) are its to judge.
func sameKeyNested(a, b *box) {
	a.mu.Lock()
	b.mu.Lock() // want lock-across-send "acquiring b.mu while holding a.mu (locked at line 418): both are lockcase.box.mu"
	b.mu.Unlock()
	a.mu.Unlock()
}

// A directive on the inner call states once why it cannot park, and
// cuts the park out of the summary of every caller above it.
type readQueue struct{ slots *vclock.Mailbox[int] }

func (q *readQueue) up(v int) { q.slots.Send(v) }

type conv struct {
	mu sync.Mutex
	rq *readQueue
}

func (c *conv) hangupLocked() {
	c.rq.up(0) //netvet:ignore lock-across-send cannot park: the queue holds more than the window admits
}

func (c *conv) die() {
	c.mu.Lock()
	c.hangupLocked() // cut: silent
	c.mu.Unlock()
}

func (c *conv) dieUncut() {
	c.mu.Lock()
	c.rq.up(0) // want lock-across-send "call may park while holding c.mu (locked at line 446): lockcase.readQueue.up: vclock.Mailbox.Send"
	c.mu.Unlock()
}
