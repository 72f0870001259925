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
	mu       sync.Mutex
	now      int64 // ns since Epoch
	seq      uint64
	runq     gorList
	events   eventHeap
	running  *gor
	all      *gor    // every live machine goroutine, linked through nextLive
	free     gorList // parking spots of exited goroutines, for Go to reuse
	rootDone bool
	started  bool

	// parked is the rendezvous with the scheduler loop: the running
	// goroutine sends exactly one token when it parks or exits.
	parked chan struct{}
}

// gor is one machine goroutine's parking spot. It is on one list at a
// time — the run queue, one Cond's waiters, or once its goroutine has
// exited the free list — and sleeps on one timer at a time, so it
// carries its own link and its own event: parking and waking allocate
// nothing, and a goroutine started on a reused spot allocates only its
// closure.
type gor struct {
	wake chan struct{}
	next *gor   // run queue or Cond waiters
	ev   event  // the timer Sleep and SleepUntil park on
	op   string // the primitive it last parked in

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
	return &Virtual{parked: make(chan struct{})}
}

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
// leak checkers, like any real leak).
func (v *Virtual) Run(fn func()) {
	v.mu.Lock()
	if v.started {
		v.mu.Unlock()
		panic("vclock: Run called twice")
	}
	v.started = true
	v.mu.Unlock()
	v.Go(func() {
		defer func() {
			v.mu.Lock()
			v.rootDone = true
			v.mu.Unlock()
		}()
		fn()
	})
	const drainHorizon = int64(time.Minute)
	drainUntil := int64(-1)
	for {
		g := v.pick(&drainUntil, drainHorizon)
		if g == nil {
			return
		}
		v.mu.Lock()
		v.running = g
		v.mu.Unlock()
		g.wake <- struct{}{}
		<-v.parked
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

// pick pops the next runnable goroutine, advancing virtual time
// through pending events as needed. It returns nil when the
// simulation is over (or drained past the post-root horizon).
func (v *Virtual) pick(drainUntil *int64, horizon int64) *gor {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		if g := v.runq.pop(); g != nil {
			return g
		}
		if v.rootDone && *drainUntil < 0 {
			*drainUntil = v.now + horizon
		}
		fired := false
		for v.events.Len() > 0 && !fired {
			if v.rootDone && v.events.peek().at > *drainUntil {
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
			fired = true
		}
		if fired {
			continue
		}
		if v.all != nil && !v.rootDone {
			n, who := v.parkedLocked()
			panic(fmt.Sprintf("vclock: simulation deadlock: %d machine goroutine(s) parked with no pending event at T+%v: %s", n, time.Duration(v.now), who))
		}
		return nil
	}
}

// Go registers and starts a machine goroutine.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	v.goLocked(f)
	v.mu.Unlock()
}

func (v *Virtual) goLocked(f func()) {
	g := v.free.pop()
	if g == nil {
		g = &gor{wake: make(chan struct{})}
	}
	g.prevLive, g.nextLive = nil, v.all
	if v.all != nil {
		v.all.prevLive = g
	}
	v.all = g
	v.runq.push(g)
	go func() {
		<-g.wake
		// The token goes back in a defer: a goroutine that leaves by
		// runtime.Goexit (t.Fatal) must not leave Run waiting for it.
		// Only the holder hands it back: a goroutine whose place a
		// foreign park took (see curLocked) no longer holds it, and no
		// one may be left to take it.
		defer func() {
			v.mu.Lock()
			if g.prevLive == nil {
				v.all = g.nextLive
			} else {
				g.prevLive.nextLive = g.nextLive
			}
			if g.nextLive != nil {
				g.nextLive.prevLive = g.prevLive
			}
			v.free.push(g)
			holder := v.running == g
			if holder {
				v.running = nil
			}
			v.mu.Unlock()
			if holder {
				v.parked <- struct{}{}
			}
		}()
		f()
	}()
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

// parkLocked releases the token (v.mu held on entry, released inside)
// and blocks until the scheduler resumes g.
func (v *Virtual) parkLocked(g *gor) {
	v.running = nil
	v.mu.Unlock()
	v.parked <- struct{}{}
	<-g.wake
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
