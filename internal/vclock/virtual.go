package vclock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Epoch is the fixed origin of virtual time. Every Virtual clock
// starts here, so timestamps derived from the clock (trace events,
// seeded generators) are identical across same-seed runs.
var Epoch = time.Date(1993, time.January, 25, 0, 0, 0, 0, time.UTC)

// Virtual is the discrete-event clock: a cooperative token scheduler
// over the goroutines registered with Go, advancing simulated time to
// the next pending timer whenever all of them are parked.
//
// The token is the scheduler's lock. Only its holder touches the
// fields below: the running process, the scheduler running between
// two of them (and the clock events it fires), or Run while no process
// runs. A hand-off is a send on the next holder's channel (gor.wake or
// back), which orders everything one holder did before everything the
// next does, so nothing else guards them; go test -race is the proof.
type Virtual struct {
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
	switches   int64 // host switches: hand-offs of the token to another goroutine

	// nlocks counts the Locks the running process holds, and held
	// lists them in a race build; inEvent is set while a clock event
	// runs. No process parks with a Lock held or from an event.
	nlocks  int
	held    heldList
	inEvent bool

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
	fn   task          // what Go handed it to run next; nil ends an idle goroutine
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

// event is a pending timer: a sleeper to resume, an AfterFunc body to
// spawn, or a clock event (h) to run. Events fire in (at, seq) order —
// seq breaks ties in creation order — and fire strictly one at a time,
// with the woken chain run to quiescence before the next event, so
// same-instant timers cannot race each other. index is the event's
// place in the heap, -1 once it has fired or been stopped: Stop takes
// an event out and Reset puts it back, so a timer re-armed forever
// allocates once.
type event struct {
	at    int64
	seq   uint64
	g     *gor
	fn    task
	h     Event
	index int
}

// task is what a machine goroutine runs: a func handed to Go or
// AfterFunc, or a Deadline's expiry, which an interface over the
// Deadline carries with no closure made for it.
type task interface{ run() }

// funcTask is a func as a task. A func value fits an interface as it
// is, so the conversion allocates nothing.
type funcTask func()

func (f funcTask) run() { f() }

// eventHeap is a binary min-heap on (at, seq), typed: its comparisons
// and moves are direct calls.
type eventHeap []*event

func (a *event) before(b *event) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.fix(ev.index)
}

// remove takes out and returns the event at i.
func (h *eventHeap) remove(i int) *event {
	ev, n := (*h)[i], len(*h)-1
	h.swap(i, n)
	(*h)[n], *h = nil, (*h)[:n]
	if i < n {
		h.fix(i)
	}
	ev.index = -1
	return ev
}

// fix moves the event at i, up or down, to its place.
func (h eventHeap) fix(i int) {
	for ; i > 0 && h[i].before(h[(i-1)/2]); i = (i - 1) / 2 {
		h.swap(i, (i-1)/2)
	}
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h.swap(i, c)
	}
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

// sleep parks the running goroutine on its own event until at.
func (v *Virtual) sleep(op string, at int64) {
	g := v.cur(op)
	g.ev = event{g: g, index: -1}
	v.arm(&g.ev, at)
	v.park(g)
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
// the primitives all work then) on the goroutine that calls Run, or on
// one ordered before it: Run holds the token until its first hand-off.
// Once Run has started, only machine goroutines may touch the clock.
//
// Run panics if the simulation deadlocks: every machine goroutine
// parked, no pending timer, and the root function not yet returned.
// After the root returns, pending timers keep firing for a bounded
// drain horizon so closing conversations can run out their lingers;
// goroutines still parked after that are leaked (and show up in the
// leak checkers, like any real leak). Idle host goroutines end when
// Run returns, by panic too.
func (v *Virtual) Run(fn func()) {
	if v.started {
		panic("vclock: Run called twice")
	}
	v.started = true
	defer v.endIdle()
	v.Go(func() {
		defer func() { v.rootDone = true }()
		fn()
	})
	v.park(nil)
	if v.all != nil && !v.rootDone {
		n, who := v.parked()
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

// next pops the next goroutine to run, advancing virtual time through
// pending events as needed: the run queue in FIFO order, then events
// in (at, seq) order, a clock event run on the spot. It is the one
// place the next goroutine is chosen. nil means nothing can run: the
// simulation is over, drained past the post-root horizon, or
// deadlocked, which Run tells apart.
func (v *Virtual) next() *gor {
	for {
		if g := v.runq.pop(); g != nil {
			return g
		}
		if v.rootDone && v.drainUntil < 0 {
			v.drainUntil = v.now + drainHorizon
		}
		if len(v.events) == 0 || v.rootDone && v.events[0].at > v.drainUntil {
			return nil
		}
		ev := v.events.remove(0)
		v.now = ev.at // arm schedules nothing before now
		switch {
		case ev.g != nil:
			v.runq.push(ev.g)
		case ev.h != nil: // a clock event runs here and may not park
			v.inEvent = true
			ev.h.Fire()
			v.inEvent = false
		case ev.fn != nil:
			v.start(ev.fn)
		}
	}
}

// handOff hands the token straight to the next goroutine, or back to
// Run when nothing can run. It reports true when the next goroutine is
// self, which keeps running without a switch; otherwise self no longer
// holds the token.
func (v *Virtual) handOff(self *gor) bool {
	next := v.next()
	v.running = next
	switch {
	case next == self:
		return true
	case next == nil:
		v.back <- struct{}{}
	default:
		v.switches++
		next.wake <- struct{}{}
	}
	return false
}

// park hands the token on and blocks until it comes back: to g, or to
// Run when g is nil — Run holds the token whenever no goroutine does.
func (v *Virtual) park(g *gor) {
	switch {
	case v.handOff(g):
	case g == nil:
		<-v.back
	default:
		<-g.wake
	}
}

// Go registers and starts a machine goroutine.
func (v *Virtual) Go(f func()) { v.start(funcTask(f)) }

// start queues f on an idle host goroutine, or on a new one when none
// is idle.
func (v *Virtual) start(f task) {
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
	f.run()
	returned = true
	return
}

// exit takes g off the live list and hands the token on. A goroutine
// whose place a foreign park took (see cur) no longer holds the token,
// so it touches nothing and no one is left to take it. A goroutine
// whose function returned then idles on the free list, and exit
// reports whether Go handed it another function; one that left by
// runtime.Goexit (reuse false) is never reused.
func (v *Virtual) exit(g *gor, reuse bool) bool {
	if v.running != g {
		return false
	}
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
	if v.handOff(g) {
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
	for g := v.free.pop(); g != nil; g = v.free.pop() {
		g.wake <- struct{}{}
	}
}

// cur returns the currently running machine goroutine, about to park
// in op; blocking clock operations from unregistered goroutines are a
// programming error (the scheduler could not know when to resume
// them). A goroutine that was never registered and parks while a
// machine goroutine runs takes that one's place unnoticed; the
// victim's next park lands here.
func (v *Virtual) cur(op string) *gor {
	g := v.running
	if g == nil {
		panic("vclock: " + op + " from a goroutine not registered with the virtual clock")
	}
	g.op = op
	return g
}

// parked counts the live goroutines and tallies them by the primitive
// each is parked in, most numerous first: "3 Mailbox.Recv, 1
// Mutex.Lock".
func (v *Virtual) parked() (n int, who string) {
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

// Switches reports how many times the token has passed from one
// goroutine to another: host context switches, the per-event cost a
// simulation pays beyond its own work. A goroutine that parks and is
// itself next to run keeps the token and costs none.
func (v *Virtual) Switches() int64 { return v.switches }

// Now implements Clock. Only next moves the clock.
func (v *Virtual) Now() time.Time { return Epoch.Add(time.Duration(v.now)) }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock: the goroutine parks and becomes runnable at
// now+d. Sleep(0) still round-trips through the event heap, so it is
// a deterministic yield point.
func (v *Virtual) Sleep(d time.Duration) {
	v.mightPark("Sleep", nil)
	v.sleep("Sleep", v.now+int64(d))
}

// SleepUntil implements Clock.
func (v *Virtual) SleepUntil(t time.Time) {
	v.mightPark("SleepUntil", nil)
	v.sleep("SleepUntil", int64(t.Sub(Epoch)))
}

// AfterFunc implements Clock: f runs as a fresh machine goroutine when
// virtual time reaches now+d.
func (v *Virtual) AfterFunc(d time.Duration, f func()) *Timer {
	t := new(Timer)
	t.arm(v, v.Now().Add(d), event{fn: funcTask(f)})
	return t
}

// arm (re)schedules ev for at, or now if at has passed, with a fresh
// sequence number, as if it had just been created; it reports whether
// ev was pending.
func (v *Virtual) arm(ev *event, at int64) bool {
	v.seq++
	ev.at, ev.seq = max(at, v.now), v.seq
	if ev.index < 0 {
		v.events.push(ev)
		return false
	}
	v.events.fix(ev.index)
	return true
}
