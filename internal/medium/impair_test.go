package medium

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"reflect"
	"testing"
	"time"

	"repro/internal/vclock"
)

// nastyImpairment arms every fault class at once.
func nastyImpairment() Impairment {
	return Impairment{
		Duplicate:    0.10,
		Reorder:      0.15,
		ReorderDepth: 3,
		Corrupt:      0.10,
		CorruptBits:  2,
		BurstP:       0.05,
		BurstR:       0.30,
		BurstLoss:    0.9,
		Partitions:   []Window{{From: 40, To: 60}, {From: 150, To: 170}},
		Record:       true,
	}
}

func seqMsg(i int) []byte {
	b := make([]byte, 32)
	binary.BigEndian.PutUint16(b, uint16(i))
	for j := 2; j < len(b); j++ {
		b[j] = byte(i * j)
	}
	return b
}

// TestImpairerScheduleReplays is the acceptance-criterion test: two
// impairers with the same seed fed the same traffic must produce the
// identical packet schedule — every drop, duplicate, bit flip, hold,
// and jitter at the same wire positions with the same values.
func TestImpairerScheduleReplays(t *testing.T) {
	run := func() ([]Decision, []Emission, Counts) {
		im := NewImpairer(nil, 42, 0.08, nastyImpairment())
		var all []Emission
		for i := range 300 {
			all = append(all, im.Apply(seqMsg(i), nil)...)
		}
		return im.Schedule(), all, im.Counts()
	}
	s1, e1, c1 := run()
	s2, e2, c2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("schedules differ between identically-seeded runs:\n%v\nvs\n%v", s1, s2)
	}
	if len(s1) != 300 {
		t.Fatalf("recorded %d decisions, want 300", len(s1))
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("emission sequences differ between identically-seeded runs")
	}
	if c1 != c2 {
		t.Fatalf("counts differ: %v vs %v", c1, c2)
	}
	// A different seed must not replay the same schedule.
	im3 := NewImpairer(nil, 43, 0.08, nastyImpairment())
	for i := range 300 {
		im3.Apply(seqMsg(i), nil)
	}
	if reflect.DeepEqual(s1, im3.Schedule()) {
		t.Fatal("different seeds produced identical schedules")
	}
	// The nasty profile must actually have exercised every fault class.
	if c1.Dropped == 0 || c1.Duplicated == 0 || c1.Corrupted == 0 || c1.Held == 0 {
		t.Fatalf("fault classes unexercised: %v", c1)
	}
}

func TestImpairerPartitionDropsAndHeals(t *testing.T) {
	im := NewImpairer(nil, 1, 0, Impairment{Partitions: []Window{{From: 10, To: 20}}, Record: true})
	for i := range 30 {
		im.Apply(seqMsg(i), nil)
	}
	for _, d := range im.Schedule() {
		in := d.Index >= 10 && d.Index < 20
		if in && (!d.Drop || d.Reason != "partition") {
			t.Errorf("decision %v: want partition drop", d)
		}
		if !in && d.Drop {
			t.Errorf("decision %v: dropped outside the partition", d)
		}
	}
}

func TestImpairerDuplicateEmitsTwoCopies(t *testing.T) {
	im := NewImpairer(nil, 7, 0, Impairment{Duplicate: 1})
	out := im.Apply([]byte("twice"), nil)
	if len(out) != 2 || !bytes.Equal(out[0].Data, out[1].Data) || string(out[0].Data) != "twice" {
		t.Fatalf("duplicate emission = %v", out)
	}
	// The two copies must not alias: corrupting one later (e.g. in a
	// downstream queue) must not affect the other.
	out[0].Data[0] ^= 0xff
	if bytes.Equal(out[0].Data, out[1].Data) {
		t.Fatal("duplicate copies alias the same backing array")
	}
}

func TestImpairerCorruptionFlipsBitsInCopy(t *testing.T) {
	orig := seqMsg(9)
	ref := append([]byte(nil), orig...)
	im := NewImpairer(nil, 11, 0, Impairment{Corrupt: 1, CorruptBits: 2, Record: true})
	out := im.Apply(orig, nil)
	if len(out) != 1 {
		t.Fatalf("want 1 emission, got %d", len(out))
	}
	if !bytes.Equal(orig, ref) {
		t.Fatal("Apply mutated the caller's buffer")
	}
	diff := 0
	for i := range orig {
		diff += bits.OnesCount8(orig[i] ^ out[0].Data[i])
	}
	d := im.Schedule()[0]
	if !d.Corrupt || len(d.Bits) != 2 {
		t.Fatalf("decision %v: want 2 recorded bit flips", d)
	}
	// Two draws can hit the same bit (flipping it back): accept 0 or 2
	// only when the recorded offsets collide.
	want := 2
	if d.Bits[0] == d.Bits[1] {
		want = 0
	}
	if diff != want {
		t.Fatalf("%d bits differ, want %d (bits %v)", diff, want, d.Bits)
	}
}

// TestImpairerReorderDisplacementBounded checks the reordering
// contract protocols with small sequence spaces depend on: a held
// message is overtaken by at most ReorderDepth distinct later
// messages. A released message carries its own route, not the route
// of the message whose transmission released it.
func TestImpairerReorderDisplacementBounded(t *testing.T) {
	const depth = 3
	im := NewImpairer(nil, 5, 0, Impairment{Reorder: 0.4, ReorderDepth: depth})
	var order []int
	for i := range 400 {
		for _, e := range im.Apply(seqMsg(i), i) {
			seq := int(binary.BigEndian.Uint16(e.Data))
			if e.Route != seq {
				t.Fatalf("message %d emitted with route %v", seq, e.Route)
			}
			order = append(order, seq)
		}
	}
	c := im.Counts()
	if c.Held == 0 {
		t.Fatal("no messages were held; reorder unexercised")
	}
	if int64(len(order)) != c.Emitted || c.Emitted+c.Dropped+c.Pending != c.Sent {
		t.Fatalf("conservation violated: %d emissions, counts %v", len(order), c)
	}
	misordered := 0
	for pos, seq := range order {
		overtakers := 0
		for _, earlier := range order[:pos] {
			if earlier > seq {
				overtakers++
			}
		}
		if overtakers > depth {
			t.Fatalf("message %d overtaken by %d later messages (depth %d)", seq, overtakers, depth)
		}
		if overtakers > 0 {
			misordered++
		}
	}
	if misordered == 0 {
		t.Fatal("no message was actually reordered")
	}
}

func TestImpairerHoldQueueBounded(t *testing.T) {
	// Reorder=1 wants to hold everything; the cap must keep the wire
	// flowing instead of swallowing it.
	im := NewImpairer(nil, 3, 0, Impairment{Reorder: 1, ReorderDepth: 2})
	emitted := 0
	for i := range 200 {
		emitted += len(im.Apply(seqMsg(i), nil))
	}
	c := im.Counts()
	if c.Pending > maxHeld {
		t.Fatalf("%d messages pending, cap is %d", c.Pending, maxHeld)
	}
	if emitted == 0 {
		t.Fatal("reorder=1 swallowed the wire entirely")
	}
}

func TestImpairerBurstLossClusters(t *testing.T) {
	im := NewImpairer(nil, 17, 0, Impairment{BurstP: 0.05, BurstR: 0.3, Record: true})
	for i := range 2000 {
		im.Apply(seqMsg(i), nil)
	}
	bursts, maxRun, run := 0, 0, 0
	for _, d := range im.Schedule() {
		if d.Drop && d.Reason == "burst" {
			bursts++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if bursts == 0 {
		t.Fatal("Gilbert–Elliott chain never dropped")
	}
	if maxRun < 2 {
		t.Errorf("burst losses never clustered (max run %d); not bursty", maxRun)
	}
}

// TestPipeImpairedDeliveryReplays asserts determinism end to end at
// the Pipe level: two pipes with the same seeded profile deliver
// byte-identical wire sequences.
func TestPipeImpairedDeliveryReplays(t *testing.T) {
	prof := Profile{Seed: 99, Loss: 0.05, Impair: nastyImpairment()}
	run := func() [][]byte {
		p := NewPipe(prof)
		defer p.Close()
		for i := range 300 {
			if err := p.Send(seqMsg(i)); err != nil {
				t.Fatal(err)
			}
		}
		n := p.ImpairCounts().Emitted
		out := make([][]byte, 0, n)
		for range n {
			m, err := p.Recv()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same-seed pipes delivered different wire sequences")
	}
}

// TestPipeSendCloseHammer is the partition/close race regression test:
// senders interleaving with Close during an armed impairment window
// must see nil or ErrClosed — never a panic on a closed line — and
// after Close every Send deterministically returns ErrClosed. Each
// round closes at a different point of the senders' schedule. No
// sender sleeps out its wire time: they fill the bounded line at once
// and park on it, and each message booked its serialization time
// whether the impairer dropped it or not.
func TestPipeSendCloseHammer(t *testing.T) {
	for round := range 20 {
		onVirtual(func(ck *vclock.Virtual) {
			p := NewPipe(Profile{
				Seed:      int64(round),
				Latency:   50 * time.Microsecond,
				Bandwidth: 3_200_000, // a 32-byte message holds the line 10 µs
				Loss:      0.1,
				Impair: Impairment{
					Duplicate:  0.2,
					Reorder:    0.2,
					Corrupt:    0.2,
					Jitter:     20 * time.Microsecond,
					Partitions: []Window{{From: 5, To: 10}},
				},
				Clock: ck,
			})
			start := ck.Now()
			done := vclock.NewWaitGroup(ck)
			sent := 0
			for g := range 8 {
				done.Add(1)
				ck.Go(func() {
					defer done.Done()
					msg := seqMsg(g)
					for range 200 {
						if err := p.Send(msg); err != nil {
							if err != ErrClosed {
								t.Errorf("send error %v", err)
							}
							return
						}
						sent++
					}
				})
			}
			// Drain so senders park only on a full line.
			done.Add(1)
			ck.Go(func() {
				defer done.Done()
				for {
					if _, err := p.Recv(); err != nil {
						return
					}
				}
			})
			ck.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
			p.Close()
			done.Wait()
			// Every message the impairer saw booked 10 µs of a line
			// that was never idle; a send Close cut short saw it too,
			// at most one a sender.
			counts := p.ImpairCounts()
			seen := int(counts.Sent)
			if got, want := p.line.free.Sub(start), time.Duration(seen)*10*time.Microsecond; got != want {
				t.Errorf("round %d: the line's next free instant advanced %v for %d messages, want %v", round, got, seen, want)
			}
			if seen < sent || seen > sent+8 {
				t.Errorf("round %d: %d sends returned nil, the impairer saw %d", round, sent, seen)
			}
			if counts.Emitted < 1024 || seen >= 8*200 {
				t.Errorf("round %d: %d copies of %d messages emitted; want the 1,024-item line full and the senders parked on it", round, counts.Emitted, seen)
			}
			if err := p.Send(seqMsg(0)); err != ErrClosed {
				t.Errorf("send after close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestPacerInstants pins the one serialization rule every paced medium
// shares: a transmission starts when the line comes free, never before
// now, and an idle line does not save up credit.
func TestPacerInstants(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	var p Pacer
	steps := []struct {
		now, busy, want time.Duration
	}{
		{0, 3 * time.Millisecond, 3 * time.Millisecond},                                                    // idle line: now + busy
		{1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond},                                 // queues behind the first
		{5 * time.Millisecond, 0, 5 * time.Millisecond},                                                    // unpaced message on a free line
		{20 * time.Millisecond, 1 * time.Millisecond, 21 * time.Millisecond},                               // idle gap is not credit
		{20 * time.Millisecond, 4 * time.Millisecond, 25 * time.Millisecond},                               // back to back
		{10 * time.Millisecond, 1 * time.Millisecond, 26 * time.Millisecond},                               // a stale now cannot rewind the line
		{26 * time.Millisecond, 10 * time.Millisecond, 36 * time.Millisecond},                              // exactly at the free instant
		{26 * time.Millisecond, TransmitTime(10*10, 9600), 36*time.Millisecond + 10416666*time.Nanosecond}, // ten UART bytes at 9600 baud
	}
	for i, s := range steps {
		if got := p.Reserve(at(s.now), s.busy); !got.Equal(at(s.want)) {
			t.Errorf("step %d: Reserve(t0+%v, %v) = t0+%v, want t0+%v", i, s.now, s.busy, got.Sub(t0), s.want)
		}
	}
}

// TestPacingMath covers the serialization-time arithmetic and the
// pacer's accumulation for zero, calibrated, and jittered profiles.
func TestPacingMath(t *testing.T) {
	ttCases := []struct {
		name string
		n    int
		bw   int64
		want time.Duration
	}{
		{"zero-bandwidth", 1500, 0, 0},
		{"ether-frame-10Mbps", 1500, 1250000, 1200 * time.Microsecond},
		{"datakit-cell-2Mbps", 1031, 250000, 4124 * time.Microsecond},
		{"cyclone-block-3.5MBps", 16384, 3500000, 4681142 * time.Nanosecond},
		{"one-byte-1Bps", 1, 1, time.Second},
	}
	for _, c := range ttCases {
		if got := TransmitTime(c.n, c.bw); got != c.want {
			t.Errorf("TransmitTime(%s) = %v, want %v", c.name, got, c.want)
		}
	}

	// A message arrives at its reservation's end plus the latency plus
	// its impairment delay (jitter here), never overtaking the one ahead
	// of it; the line's next free instant advances by exactly the summed
	// serialization times, and the sender never sleeps them out.
	nfCases := []struct {
		name  string
		prof  Profile
		sizes []int
	}{
		{"calibrated", Profile{Bandwidth: 1 << 20, Latency: 3 * time.Millisecond}, []int{10240, 10240, 5120}},
		{"jittered", Profile{Bandwidth: 1 << 20, Latency: 3 * time.Millisecond, Impair: Impairment{Jitter: 20 * time.Millisecond, Record: true}, Seed: 2}, []int{10240, 10240, 5120}},
	}
	for _, c := range nfCases {
		onVirtual(func(ck *vclock.Virtual) {
			c.prof.Clock = ck
			p := NewPipe(c.prof)
			defer p.Close()
			start := ck.Now()
			var ends []time.Duration
			var want time.Duration
			for _, n := range c.sizes {
				if err := p.Send(make([]byte, n)); err != nil {
					t.Errorf("%s: send: %v", c.name, err)
					return
				}
				want += TransmitTime(n, c.prof.Bandwidth)
				ends = append(ends, want)
			}
			if el := ck.Since(start); el != 0 {
				t.Errorf("%s: the sender slept %v", c.name, el)
			}
			p.line.mu.Lock()
			free := p.line.free
			p.line.mu.Unlock()
			if got := free.Sub(start); got != want {
				t.Errorf("%s: line's next-free instant advanced %v, want %v", c.name, got, want)
			}
			sched := p.Schedule()
			var due time.Duration
			for i, end := range ends {
				arrive := end + c.prof.Latency
				if sched != nil {
					arrive += sched[i].Jitter
				}
				due = max(due, arrive)
				if _, err := p.Recv(); err != nil {
					t.Errorf("%s: recv: %v", c.name, err)
					return
				}
				if el := ck.Since(start); el != due {
					t.Errorf("%s: message %d arrived after %v, want %v", c.name, i, el, due)
				}
			}
		})
	}

	// MTU rejection across the same spread of profiles.
	mtuCases := []struct {
		name string
		prof Profile
	}{
		{"zero-with-mtu", Profile{MTU: 1500}},
		{"calibrated", Profile{MTU: 1500, Bandwidth: 1250000, Latency: 200 * time.Microsecond}},
		{"jittered", Profile{MTU: 1500, Impair: Impairment{Jitter: 100 * time.Microsecond}}},
	}
	for _, c := range mtuCases {
		p := NewPipe(c.prof)
		if err := p.Send(make([]byte, 1501)); err != ErrTooLong {
			t.Errorf("%s: over-MTU send = %v, want ErrTooLong", c.name, err)
		}
		if err := p.Send(make([]byte, 1500)); err != nil {
			t.Errorf("%s: at-MTU send = %v", c.name, err)
		}
		p.Close()
	}
	// Unlimited MTU accepts anything.
	p := NewPipe(Profile{})
	defer p.Close()
	if err := p.Send(make([]byte, 1<<20)); err != nil {
		t.Errorf("unlimited MTU rejected 1MiB: %v", err)
	}
}

// TestJitterDelaysDelivery: each message arrives at the base latency
// plus its recorded jitter, in order — one that drew less jitter than
// the one ahead of it arrives with it, never before it.
func TestJitterDelaysDelivery(t *testing.T) {
	onVirtual(func(ck *vclock.Virtual) {
		const base = 2 * time.Millisecond
		p := NewPipe(Profile{Latency: base, Impair: Impairment{Jitter: 5 * time.Millisecond, Record: true}, Seed: 8, Clock: ck})
		defer p.Close()
		start := ck.Now()
		for i := range 5 {
			if err := p.Send([]byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		var want time.Duration
		overtaken := false
		for i, d := range p.Schedule() {
			if arrive := base + d.Jitter; arrive > want {
				want = arrive
			} else {
				overtaken = true
			}
			m, err := p.Recv()
			if err != nil || m[0] != byte(i) {
				t.Errorf("message %d: %v, %v", i, m, err)
				return
			}
			if el := ck.Since(start); el != want {
				t.Errorf("message %d (jitter %v) arrived after %v, want %v", i, d.Jitter, el, want)
			}
		}
		if !overtaken {
			t.Error("no message drew less jitter than the one ahead of it; pick another seed")
		}
	})
}
