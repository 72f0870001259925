package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Epoch is the fixed origin of virtual time. Every Virtual clock
// starts here, so timestamps derived from the clock (trace events,
// seeded generators) are identical across same-seed runs.
var Epoch = time.Date(1993, time.January, 25, 0, 0, 0, 0, time.UTC)

// Virtual is the discrete-event clock: a cooperative token scheduler
// over the goroutines registered with Go, advancing simulated time to
// the next pending timer whenever all of them are parked.
type Virtual struct {
	mu         sync.Mutex
	now        int64 // ns since Epoch
	seq        uint64
	runq       gorList
	events     eventHeap
	running    *gor
	all        *gor    // every live machine goroutine, linked through nextLive
	free       gorList // idle host goroutines whose function returned, for Go to reuse
	rootDone   bool
	drainUntil int64 // end of the post-root drain horizon; -1 until the root returns
	started    bool

	// back hands the token back to Run once nothing can run: the
	// simulation is over, drained, or deadlocked.
	back chan struct{}
}

// gor is one machine goroutine: a host goroutine that runs the
// functions Go hands it one after another, idling on the free list
// between them. It is on one list at a time — the run queue, one
// Cond's waiters, or the free list — and sleeps on one timer at a
// time, so it carries its own link and its own event: parking and
// waking allocate nothing, and a Go that finds an idle goroutine
// allocates only its closure.
type gor struct {
	wake chan struct{} // the token, handed to this goroutine
	fn   func()        // what Go handed it to run next; nil ends an idle goroutine
	next *gor          // run queue, Cond waiters or free list
	ev   event         // the timer Sleep and SleepUntil park on
	op   string        // the primitive it last parked in

	prevLive, nextLive *gor // Virtual.all; touched only at Go and exit
}

// gorList is a FIFO of parked or runnable goroutines, linked through
// gor.next.
type gorList struct{ head, tail *gor }

func (l *gorList) push(g *gor) {
	g.next = nil
	if l.tail == nil {
		l.head = g
	} else {
		l.tail.next = g
	}
	l.tail = g
}

func (l *gorList) pop() *gor {
	g := l.head
	if g == nil {
		return nil
	}
	if l.head = g.next; l.head == nil {
		l.tail = nil
	}
	g.next = nil
	return g
}

// take moves all of m onto the end of l, keeping m's order.
func (l *gorList) take(m *gorList) {
	if m.head == nil {
		return
	}
	if l.tail == nil {
		l.head = m.head
	} else {
		l.tail.next = m.head
	}
	l.tail = m.tail
	*m = gorList{}
}

// event is a pending timer: a sleeper to resume, or an AfterFunc body
// to spawn. Events fire in (at, seq) order — seq breaks ties in
// creation order — and fire strictly one at a time, with the woken
// chain run to quiescence before the next event, so same-instant
// timers cannot race each other. index is the event's place in the
// heap, -1 once it has fired or been stopped: Stop takes an event out
// and Reset puts it back, so a timer re-armed forever allocates once.
type event struct {
	at    int64
	seq   uint64
	g     *gor
	fn    func()
	index int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.index = -1
	return ev
}
func (h eventHeap) peek() *event { return h[0] }

// sleepLocked parks the running goroutine on its own event until at.
func (v *Virtual) sleepLocked(op string, at int64) {
	g := v.curLocked(op)
	v.seq++
	g.ev = event{at: at, seq: v.seq, g: g}
	heap.Push(&v.events, &g.ev)
	v.parkLocked(g)
}

// NewVirtual returns a virtual clock positioned at Epoch. Drive it
// with Run.
func NewVirtual() *Virtual {
	return &Virtual{back: make(chan struct{}, 1), drainUntil: -1}
}

// drainHorizon is how long pending timers keep firing after the root
// returns.
const drainHorizon = int64(time.Minute)

// Run executes fn as the root machine goroutine and drives the
// scheduler until fn returns and the remaining machine goroutines have
// wound down. Construction may happen before Run (Go, AfterFunc and
// the primitives all work from the calling thread then); once Run has
// started, only machine goroutines may touch the clock.
//
// Run panics if the simulation deadlocks: every machine goroutine
// parked, no pending timer, and the root function not yet returned.
// After the root returns, pending timers keep firing for a bounded
// drain horizon so closing conversations can run out their lingers;
// goroutines still parked after that are leaked (and show up in the
// leak checkers, like any real leak). Idle host goroutines end when
// Run returns, by panic too.
func (v *Virtual) Run(fn func()) {
	v.mu.Lock()
	if v.started {
		v.mu.Unlock()
		panic("vclock: Run called twice")
	}
	v.started = true
	v.mu.Unlock()
	defer v.endIdle()
	v.Go(func() {
		defer func() {
			v.mu.Lock()
			v.rootDone = true
			v.mu.Unlock()
		}()
		fn()
	})
	v.mu.Lock()
	v.parkLocked(nil)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.all != nil && !v.rootDone {
		n, who := v.parkedLocked()
		panic(fmt.Sprintf("vclock: simulation deadlock: %d machine goroutine(s) parked with no pending event at T+%v: %s", n, time.Duration(v.now), who))
	}
}

// Simulate runs fn as the root machine goroutine of a fresh virtual
// clock, which it is handed, and returns fn's error once Run returns.
func Simulate(fn func(Clock) error) error {
	v := NewVirtual()
	var err error
	v.Run(func() { err = fn(v) })
	return err
}

// nextLocked pops the next goroutine to run, advancing virtual time
// through pending events as needed: the run queue in FIFO order, then
// events in (at, seq) order. It is the one place the next goroutine is
// chosen. nil means nothing can run: the simulation is over, drained
// past the post-root horizon, or deadlocked, which Run tells apart.
func (v *Virtual) nextLocked() *gor {
	for {
		if g := v.runq.pop(); g != nil {
			return g
		}
		if v.rootDone && v.drainUntil < 0 {
			v.drainUntil = v.now + drainHorizon
		}
		if v.events.Len() == 0 || v.rootDone && v.events.peek().at > v.drainUntil {
			return nil
		}
		ev := heap.Pop(&v.events).(*event)
		if ev.at > v.now {
			v.now = ev.at
		}
		if ev.g != nil {
			v.runq.push(ev.g)
		} else if ev.fn != nil {
			v.goLocked(ev.fn)
		}
	}
}

// switchLocked hands the token (v.mu held on entry, released inside)
// straight to the next goroutine, or back to Run when nothing can run.
// It reports true when the next goroutine is self, which keeps running
// without a switch; otherwise self no longer holds the token.
func (v *Virtual) switchLocked(self *gor) bool {
	next := v.nextLocked()
	v.running = next
	v.mu.Unlock()
	switch {
	case next == nil:
		v.back <- struct{}{}
	case next == self:
		return true
	default:
		next.wake <- struct{}{}
	}
	return false
}

// parkLocked releases the token (v.mu held on entry, released inside)
// and blocks until it comes back: to g, or to Run when g is nil — Run
// holds the token whenever no goroutine does.
func (v *Virtual) parkLocked(g *gor) {
	switch {
	case v.switchLocked(g):
	case g == nil:
		<-v.back
	default:
		<-g.wake
	}
}

// park is parkLocked for a caller that does not hold v.mu.
func (v *Virtual) park(g *gor) {
	v.mu.Lock()
	v.parkLocked(g)
}

// Go registers and starts a machine goroutine.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	v.goLocked(f)
	v.mu.Unlock()
}

// goLocked queues f on an idle host goroutine, or on a new one when
// none is idle.
func (v *Virtual) goLocked(f func()) {
	g := v.free.pop()
	if g == nil {
		g = &gor{wake: make(chan struct{}, 1)}
		go v.host(g)
	}
	g.fn = f
	g.prevLive, g.nextLive = nil, v.all
	if v.all != nil {
		v.all.prevLive = g
	}
	v.all = g
	v.runq.push(g)
}

// host is the body of g's host goroutine: it runs each function Go
// hands g, until Run ends it idle or a function leaves by
// runtime.Goexit.
func (v *Virtual) host(g *gor) {
	<-g.wake
	for v.call(g) {
	}
}

// call runs g's function and then retires g, reporting whether g has
// another function to run. The retirement is deferred: a function that
// leaves by runtime.Goexit (t.Fatal) must not take the token with it.
func (v *Virtual) call(g *gor) (again bool) {
	f := g.fn
	g.fn = nil
	returned := false
	defer func() { again = v.exit(g, returned) }()
	f()
	returned = true
	return
}

// exit takes g off the live list and hands the token on. Only the
// holder hands it on: a goroutine whose place a foreign park took (see
// curLocked) no longer holds it, and no one may be left to take it. A
// goroutine whose function returned then idles on the free list, and
// exit reports whether Go handed it another function; one that left by
// runtime.Goexit (reuse false) is never reused.
func (v *Virtual) exit(g *gor, reuse bool) bool {
	v.mu.Lock()
	if g.prevLive == nil {
		v.all = g.nextLive
	} else {
		g.prevLive.nextLive = g.nextLive
	}
	if g.nextLive != nil {
		g.nextLive.prevLive = g.prevLive
	}
	if reuse {
		v.free.push(g)
	}
	if v.running != g {
		v.mu.Unlock()
	} else if v.switchLocked(g) {
		return true // an AfterFunc that fired took g, and runs next
	}
	return reuse && g.idle()
}

// idle waits on the free list until Go hands g a function, reporting
// true, or Run ends g, reporting false.
func (g *gor) idle() bool {
	<-g.wake
	return g.fn != nil
}

// endIdle ends every idle host goroutine.
func (v *Virtual) endIdle() {
	v.mu.Lock()
	idle := v.free
	v.free = gorList{}
	v.mu.Unlock()
	for g := idle.pop(); g != nil; g = idle.pop() {
		g.wake <- struct{}{}
	}
}

// curLocked returns the currently running machine goroutine, about to
// park in op; blocking clock operations from unregistered goroutines
// are a programming error (the scheduler could not know when to resume
// them). A goroutine that was never registered and parks while a
// machine goroutine runs takes that one's place unnoticed; the victim's
// next park lands here, so the panic releases v.mu first, or the
// victim's own deferred hand-back would wait on it forever.
func (v *Virtual) curLocked(op string) *gor {
	g := v.running
	if g == nil {
		v.mu.Unlock()
		panic("vclock: " + op + " from a goroutine not registered with the virtual clock")
	}
	g.op = op
	return g
}

// parkedLocked counts the live goroutines and tallies them by the
// primitive each is parked in, most numerous first: "3 Mailbox.Recv,
// 1 Mutex.Lock".
func (v *Virtual) parkedLocked() (n int, who string) {
	count := map[string]int{}
	for g := v.all; g != nil; g = g.nextLive {
		count[g.op]++
		n++
	}
	ops := make([]string, 0, len(count))
	for op := range count {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if count[ops[i]] != count[ops[j]] {
			return count[ops[i]] > count[ops[j]]
		}
		return ops[i] < ops[j]
	})
	for i, op := range ops {
		ops[i] = fmt.Sprintf("%d %s", count[op], op)
	}
	return n, strings.Join(ops, ", ")
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Epoch.Add(time.Duration(v.now))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock: the goroutine parks and becomes runnable at
// now+d. Sleep(0) still round-trips through the event heap, so it is
// a deterministic yield point.
func (v *Virtual) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.sleepLocked("Sleep", v.now+int64(d))
}

// SleepUntil implements Clock.
func (v *Virtual) SleepUntil(t time.Time) {
	v.mu.Lock()
	at := int64(t.Sub(Epoch))
	if at < v.now {
		at = v.now
	}
	v.sleepLocked("SleepUntil", at)
}

// AfterFunc implements Clock: f runs as a fresh machine goroutine when
// virtual time reaches now+d.
func (v *Virtual) AfterFunc(d time.Duration, f func()) *Timer {
	t := &Timer{v: v, ev: event{fn: f, index: -1}}
	t.Reset(d)
	return t
}

// stop takes ev out of the heap, reporting whether it was pending.
func (v *Virtual) stop(ev *event) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ev.index < 0 {
		return false
	}
	heap.Remove(&v.events, ev.index)
	return true
}

// reset (re)schedules ev for now+d with a fresh sequence number, as if
// it had just been created; it reports whether ev was pending.
func (v *Virtual) reset(ev *event, d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	ev.at, ev.seq = v.now+int64(d), v.seq
	if ev.index < 0 {
		heap.Push(&v.events, ev)
		return false
	}
	heap.Fix(&v.events, ev.index)
	return true
}

// Virtual implements Clock.
func (v *Virtual) Virtual() bool { return true }
