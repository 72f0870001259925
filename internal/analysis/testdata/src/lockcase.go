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
	p.b.Lock() // want lock-across-send "acquiring p.b while holding p.a"
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
	b.mu.Lock() // want lock-across-send "acquiring b.mu while holding b.vmu" // want lock-order "lock-order cycle"
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
