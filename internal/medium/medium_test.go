package medium

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/vclock"
)

// onVirtual runs body as the root machine goroutine of a fresh virtual
// clock. Time passes only while every machine goroutine is parked, so
// the instants the tests assert are exact. A pipe or delay line the
// body makes must close before it returns, so its process winds down.
func onVirtual(body func(ck *vclock.Virtual)) {
	v := vclock.NewVirtual()
	v.Run(func() { body(v) })
}

func TestPipeOrderedDelivery(t *testing.T) {
	p := NewPipe(Profile{})
	defer p.Close()
	for i := range 100 {
		if err := p.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 100 {
		m, err := p.Recv()
		if err != nil || m[0] != byte(i) {
			t.Fatalf("message %d: %v, %v", i, m, err)
		}
	}
}

func TestPipeOrderedDeliveryWithLatency(t *testing.T) {
	p := NewPipe(Profile{Latency: time.Millisecond})
	defer p.Close()
	for i := range 50 {
		p.Send([]byte{byte(i)})
	}
	for i := range 50 {
		m, err := p.Recv()
		if err != nil || m[0] != byte(i) {
			t.Fatalf("latency pipe message %d: %v, %v", i, m, err)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Latency: 20 * time.Millisecond, Clock: ck})
		defer p.Close()
		start := ck.Now()
		p.Send([]byte("x"))
		if _, err := p.Recv(); err != nil {
			t.Error(err)
			return
		}
		if el := ck.Since(start); el != 20*time.Millisecond {
			t.Errorf("message arrived after %v, want 20ms", el)
		}
	})
}

// TestLatencyPipelines: ten messages sent at once over a 20 ms link
// all arrive 20 ms later, not one every 20 ms.
func TestLatencyPipelines(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Latency: 20 * time.Millisecond, Clock: ck})
		defer p.Close()
		start := ck.Now()
		for range 10 {
			p.Send([]byte("x"))
		}
		for i := range 10 {
			if _, err := p.Recv(); err != nil {
				t.Error(err)
				return
			}
			if el := ck.Since(start); el != 20*time.Millisecond {
				t.Errorf("message %d arrived after %v, want 20ms: latency is serializing", i, el)
			}
		}
	})
}

// TestBandwidthPacesSender: the bandwidth paces what a sender puts on
// the wire, not the sender. Ten 10 KiB messages at 1 MiB/s leave the
// sender at once, and each arrives when its serialization ends, queued
// behind the ones before it.
func TestBandwidthPacesSender(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Bandwidth: 1 << 20, Clock: ck}) // 1 MiB/s
		defer p.Close()
		start := ck.Now()
		for range 10 {
			p.Send(make([]byte, 10*1024))
		}
		if el := ck.Since(start); el != 0 {
			t.Errorf("the sender slept %v putting 100 KiB on the wire, want 0", el)
		}
		for i := range 10 {
			if _, err := p.Recv(); err != nil {
				t.Error(err)
				return
			}
			if el, want := ck.Since(start), time.Duration(i+1)*TransmitTime(10*1024, 1<<20); el != want {
				t.Errorf("message %d arrived after %v, want %v", i, el, want)
			}
		}
	})
}

func TestMTURejected(t *testing.T) {
	p := NewPipe(Profile{MTU: 100})
	defer p.Close()
	if err := p.Send(make([]byte, 101)); err != ErrTooLong {
		t.Errorf("over-MTU send = %v", err)
	}
	if err := p.Send(make([]byte, 100)); err != nil {
		t.Errorf("at-MTU send = %v", err)
	}
}

func TestLossDrops(t *testing.T) {
	p := NewPipe(Profile{Loss: 1.0, Seed: 3})
	for range 20 {
		p.Send([]byte("gone"))
	}
	if c := p.ImpairCounts(); c.Dropped != 20 || c.Emitted != 0 {
		t.Errorf("loss=1.0 counts %v, want 20 dropped and nothing emitted", c)
	}
	p.Close()
	if m, err := p.Recv(); err != ErrClosed {
		t.Errorf("message %q survived loss=1.0", m)
	}
}

func TestCloseUnblocksReceiver(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Clock: ck})
		var (
			err  error
			woke time.Time
		)
		ck.Go(func() {
			_, err = p.Recv()
			woke = ck.Now()
		})
		ck.Sleep(5 * time.Millisecond)
		closed := ck.Now()
		p.Close()
		ck.Sleep(0)
		if err != ErrClosed || !woke.Equal(closed) {
			t.Errorf("receiver woke at T+%v with %v, want T+%v with ErrClosed", woke.Sub(vclock.Epoch), err, closed.Sub(vclock.Epoch))
		}
		if err := p.Send([]byte("x")); err != ErrClosed {
			t.Errorf("send after close = %v", err)
		}
	})
}

// TestPipeSenderParksOnAFullLine: a pipe with latency bounds its
// sender. Facing a reader that does not read, the sender fills the
// receive queue (1024), the line process's hand (1) and the line
// (1024), then parks in Send; each Recv lets one more message in.
func TestPipeSenderParksOnAFullLine(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Latency: time.Millisecond, Clock: ck})
		const full = 1024 + 1 + 1024
		var (
			sent int
			err  error
		)
		ck.Go(func() {
			// Stops at twice the bound if the line never fills.
			for err == nil && sent < 2*full {
				if err = p.Send([]byte{1}); err == nil {
					sent++
				}
			}
		})
		ck.Sleep(time.Second)
		if sent != full {
			t.Errorf("the sender put %d messages in flight, want %d then park", sent, full)
		}
		for range 3 {
			p.Recv()
		}
		ck.Sleep(time.Second)
		if sent != full+3 {
			t.Errorf("three receives let %d more messages in, want 3", sent-full)
		}
		p.Close()
		ck.Sleep(0)
		if err != ErrClosed {
			t.Errorf("the parked sender woke from Close with %v, want ErrClosed", err)
		}
	})
}

// TestRecvDrainsQueueAfterClose: what the line delivered before Close
// is still read after it; what was still on the line is lost.
func TestRecvDrainsQueueAfterClose(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Latency: time.Millisecond, Clock: ck})
		p.Send([]byte("still here"))
		ck.Sleep(2 * time.Millisecond) // it arrives
		p.Send([]byte("in flight"))
		p.Close()
		m, err := p.Recv()
		if err != nil || !bytes.Equal(m, []byte("still here")) {
			t.Errorf("drain after close: %q, %v", m, err)
		}
		if m, err := p.Recv(); err != ErrClosed {
			t.Errorf("then read %q, %v; want ErrClosed", m, err)
		}
	})
}

func TestDuplex(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		a, b := NewDuplex(Profile{Clock: ck})
		var atA, atB []string
		a.Receive(func(m []byte, err error) {
			if err == nil {
				atA = append(atA, string(m))
			}
		})
		b.Receive(func(m []byte, err error) {
			if err == nil {
				atB = append(atB, string(m))
			}
		})
		a.Send([]byte("to b"))
		b.Send([]byte("to a"))
		ck.Sleep(0)
		a.Close()
		if !slices.Equal(atB, []string{"to b"}) || !slices.Equal(atA, []string{"to a"}) {
			t.Errorf("b heard %q and a heard %q, want [to b] and [to a]", atB, atA)
		}
		if a.MTU() != 0 {
			t.Errorf("unlimited MTU = %d", a.MTU())
		}
	})
}

// TestAllocsReceiverBeforeTraffic: a pipe and a duplex whose receivers
// are installed before traffic never build the default mailbox, and
// once their lines' rings have grown, a send and its delivery allocate
// nothing. (TestPipeOrderedDelivery keeps the bare pipe's path, NewPipe
// then Send then Recv, delivering every message in order.)
func TestAllocsReceiverBeforeTraffic(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	onVirtual(func(ck *vclock.Virtual) {
		p := NewPipe(Profile{Clock: ck})
		a, b := NewDuplex(Profile{Clock: ck, Latency: time.Millisecond})
		heard := 0
		recv := func(m []byte, err error) {
			if err == nil {
				heard++
				block.PutBytes(m)
			}
		}
		p.Receive(recv)
		a.Receive(recv)
		b.Receive(recv)
		msg := make([]byte, 64)
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() {
			p.Send(msg)
			a.Send(msg)
			b.Send(msg)
			ck.Sleep(2 * time.Millisecond)
		})
		p.Close()
		a.Close()
		if allocs != 0 {
			t.Errorf("a send and its delivery allocate %.1f objects, want 0", allocs)
		}
		if want := 3 * (runs + 1); heard != want {
			t.Errorf("%d messages delivered, want %d", heard, want)
		}
		for _, pipe := range []*Pipe{p, a.tx, a.rx} {
			if pipe.queue != nil {
				t.Error("a pipe with its receiver installed built the default mailbox")
			}
		}
	})
}

// --- the delay line ---

// line is a delay line on ck that logs each arrival with its instant,
// as an offset from start.
type line struct {
	*Delay[int]
	start    time.Time
	arrivals []int
	at       []time.Duration
}

func newLine(ck vclock.Clock) *line {
	l := &line{start: ck.Now()}
	l.Delay = NewDelay(ck, 0, func(v int) {
		l.arrivals = append(l.arrivals, v)
		l.at = append(l.at, ck.Since(l.start))
	})
	return l
}

// put puts v on the line due d after the line's start.
func (l *line) put(v int, d time.Duration) bool { return l.Put(v, l.start.Add(d)) }

// TestDelayArrivesAtItsInstant: each item arrives exactly at the
// instant it was put for, however many are in flight.
func TestDelayArrivesAtItsInstant(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		l := newLine(ck)
		defer l.Close()
		due := []time.Duration{0, time.Millisecond, time.Millisecond, 1500 * time.Microsecond, 40 * time.Millisecond}
		for i, d := range due {
			l.put(i, d)
		}
		ck.Sleep(time.Second)
		if !slices.Equal(l.arrivals, []int{0, 1, 2, 3, 4}) || !slices.Equal(l.at, due) {
			t.Errorf("arrivals %v at %v, want 0…4 at %v", l.arrivals, l.at, due)
		}
	})
}

// TestDelayIsFIFOUnderJitter: an item due before the head (it drew less
// jitter) waits behind it and arrives with it, never ahead of it.
func TestDelayIsFIFOUnderJitter(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		l := newLine(ck)
		defer l.Close()
		for i, d := range []time.Duration{5 * time.Millisecond, time.Millisecond, 7 * time.Millisecond, 6 * time.Millisecond} {
			l.put(i, d)
		}
		ck.Sleep(time.Second)
		want := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond}
		if !slices.Equal(l.arrivals, []int{0, 1, 2, 3}) || !slices.Equal(l.at, want) {
			t.Errorf("arrivals %v at %v, want 0…3 at %v", l.arrivals, l.at, want)
		}
	})
}

// TestDelayPutNeverParks: a sender may put any number of items on an
// unbounded line — past the pipe's 1024 bound — without yielding:
// none arrives, not even one already due, until the sender parks.
func TestDelayPutNeverParks(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		l := newLine(ck)
		defer l.Close()
		const n = 4096
		for i := range n {
			if !l.put(i, 0) {
				t.Errorf("put %d failed on an open line", i)
				return
			}
		}
		if len(l.arrivals) != 0 || ck.Since(l.start) != 0 {
			t.Errorf("the sender yielded while putting: %d arrived, T+%v", len(l.arrivals), ck.Since(l.start))
		}
		ck.Sleep(time.Millisecond)
		if len(l.arrivals) != n || l.arrivals[n-1] != n-1 || l.at[n-1] != 0 {
			t.Errorf("%d of %d arrived once the sender parked", len(l.arrivals), n)
		}
	})
}

// TestDelayIdleLineStartsNoProcess: a line is its queue and one clock
// event, never a process: an idle line costs the scheduler nothing, and
// an item arrives at its instant with no hand-off, as a function call
// on the goroutine that parked.
func TestDelayIdleLineStartsNoProcess(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		l := newLine(ck)
		defer l.Close()
		s := ck.Switches()
		ck.Sleep(time.Millisecond)
		l.put(0, 1500*time.Microsecond)
		ck.Sleep(time.Millisecond)
		if len(l.arrivals) != 1 || l.at[0] != 1500*time.Microsecond || ck.Switches() != s {
			t.Errorf("%d arrived, at %v, in %d hand-offs; want one at 1.5ms in none (a process per line is back?)", len(l.arrivals), l.at, ck.Switches()-s)
		}
	})
}

// TestDelayOneProcessUnderConcurrentPuts: senders on host threads race
// to put the first items on a fresh line on the real clock, where a
// runtime timer runs its event, and the event runs one at a time: the
// receiver never runs on two goroutines at once (the race detector
// would see the second), and each sender's items arrive in its order.
func TestDelayOneProcessUnderConcurrentPuts(t *testing.T) {
	const senders, each = 8, 100
	var got [senders][]int // touched only by the line's process
	done := vclock.NewMailbox[bool](vclock.Real, 1)
	d := NewDelay(vclock.Real, 0, func(v [2]int) {
		if v[0] < 0 {
			done.Send(true) // the marker put after every sender finished
			return
		}
		got[v[0]] = append(got[v[0]], v[1])
	})
	defer d.Close()
	var wg sync.WaitGroup
	ready := make(chan struct{})
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ready // all at once, for the first Put
			for i := range each {
				d.Put([2]int{s, i}, time.Time{}) // long due
			}
		}()
	}
	close(ready)
	wg.Wait()
	d.Put([2]int{-1, 0}, time.Time{})
	done.Recv()
	want := make([]int, each)
	for i := range want {
		want[i] = i
	}
	for s := range senders {
		if !slices.Equal(got[s], want) {
			t.Fatalf("sender %d's items arrived as %v, want 0…%d in order", s, got[s], each-1)
		}
	}
}

// TestDelayDueItemsPassInOneWake: every item due when the line's event
// fires is handed on by that one event, with no event-heap round trip
// per item and no hand-off, so a sender's yield at the same instant
// finds a burst of any size arrived.
func TestDelayDueItemsPassInOneWake(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		l := newLine(ck)
		defer l.Close()
		const n = 100
		for i := range n {
			l.put(i, 0)
		}
		s := ck.Switches()
		ck.Sleep(0)
		if got := ck.Switches() - s; len(l.arrivals) != n || got != 0 {
			t.Errorf("after one yield %d of %d due items arrived in %d hand-offs, want all in 0", len(l.arrivals), n, got)
		}
	})
}

// TestDelayCloseReturnsWhatIsInFlight: Close hands back what is in
// flight, head first, the item whose instant the event is waiting for
// included, and Put fails after it: nothing arrives after Close.
func TestDelayCloseReturnsWhatIsInFlight(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		l := newLine(ck)
		for i := range 3 {
			l.put(i, time.Duration(i+1)*time.Millisecond)
		}
		if left := l.Close(); !slices.Equal(left, []int{0, 1, 2}) {
			t.Errorf("Close before the first arrival returned %v, want [0 1 2]", left)
		}
		ck.Sleep(time.Second)
		if len(l.arrivals) != 0 || l.put(9, 0) {
			t.Errorf("after Close %v arrived and Put did not fail", l.arrivals)
		}

		l = newLine(ck)
		for i := range 4 {
			l.put(i, time.Duration(i+1)*time.Millisecond)
		}
		ck.Sleep(1500 * time.Microsecond)
		left := l.Close()
		ck.Sleep(time.Second)
		if !slices.Equal(left, []int{1, 2, 3}) || !slices.Equal(l.arrivals, []int{0}) || l.at[0] != time.Millisecond {
			t.Errorf("Close at 1.5 ms returned %v; %v arrived at %v, want [1 2 3], and [0] at [1ms]", left, l.arrivals, l.at)
		}
		if again := l.Close(); again != nil {
			t.Errorf("a second Close returned %v", again)
		}
	})
}

// refuser is a receiver with room for cap items until drained.
type refuser struct {
	got  []int
	room int
}

func (r *refuser) arrive(v int) bool {
	if len(r.got) == r.room {
		return false
	}
	r.got = append(r.got, v)
	return true
}

// TestDelayRefusedItemWaitsForKick: a receiver with no room refuses
// instead of parking; the line keeps the item in hand and hands on
// nothing more, however long, until the receiver kicks it, and then it
// loses nothing and keeps the order. The item in hand leaves a slot on
// a bounded line, as the head a line process held did.
func TestDelayRefusedItemWaitsForKick(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		r := &refuser{room: 2}
		d := new(Delay[int])
		d.init(ck, 3, r)
		defer d.Close()
		put := func(from, to int) (n int) {
			for i := from; i < to && d.Put(i, ck.Now()); i++ {
				n++
			}
			return n
		}
		if n := put(0, 4); n != 3 {
			t.Errorf("a line bounded at 3 took %d items", n)
		}
		ck.Sleep(time.Second)
		if n := put(3, 7); !slices.Equal(r.got, []int{0, 1}) || n != 3 {
			t.Errorf("a receiver with room for 2 took %v and the line then %d more; want [0 1], and 3 beside the one in hand", r.got, n)
		}
		r.room = 10
		d.Kick()
		ck.Sleep(0)
		if !slices.Equal(r.got, []int{0, 1, 2, 3, 4, 5}) {
			t.Errorf("after the kick the receiver had %v, want [0 1 2 3 4 5]", r.got)
		}
	})
}
