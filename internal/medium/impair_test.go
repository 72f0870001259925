package medium

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"time"
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
		im := NewImpairer(42, 0.08, nastyImpairment())
		var all []Emission
		for i := range 300 {
			all = append(all, im.Apply(seqMsg(i))...)
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
	im3 := NewImpairer(43, 0.08, nastyImpairment())
	for i := range 300 {
		im3.Apply(seqMsg(i))
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
	im := NewImpairer(1, 0, Impairment{Partitions: []Window{{From: 10, To: 20}}, Record: true})
	for i := range 30 {
		im.Apply(seqMsg(i))
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
	im := NewImpairer(7, 0, Impairment{Duplicate: 1})
	out := im.Apply([]byte("twice"))
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
	im := NewImpairer(11, 0, Impairment{Corrupt: 1, CorruptBits: 2, Record: true})
	out := im.Apply(orig)
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
// messages.
func TestImpairerReorderDisplacementBounded(t *testing.T) {
	const depth = 3
	im := NewImpairer(5, 0, Impairment{Reorder: 0.4, ReorderDepth: depth})
	var order []int
	for i := range 400 {
		for _, e := range im.Apply(seqMsg(i)) {
			order = append(order, int(binary.BigEndian.Uint16(e.Data)))
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
	im := NewImpairer(3, 0, Impairment{Reorder: 1, ReorderDepth: 2})
	emitted := 0
	for i := range 200 {
		emitted += len(im.Apply(seqMsg(i)))
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
	im := NewImpairer(17, 0, Impairment{BurstP: 0.05, BurstR: 0.3, Record: true})
	for i := range 2000 {
		im.Apply(seqMsg(i))
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
// concurrent senders racing Close during an armed impairment window
// must see nil or ErrClosed — never a panic on a closed channel — and
// after Close every Send deterministically returns ErrClosed.
func TestPipeSendCloseHammer(t *testing.T) {
	for round := range 20 {
		p := NewPipe(Profile{
			Seed:    int64(round),
			Latency: 50 * time.Microsecond,
			Loss:    0.1,
			Impair: Impairment{
				Duplicate:  0.2,
				Reorder:    0.2,
				Corrupt:    0.2,
				Jitter:     20 * time.Microsecond,
				Partitions: []Window{{From: 5, To: 10}},
			},
		})
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				msg := seqMsg(g)
				for i := 0; i < 200; i++ {
					if err := p.Send(msg); err != nil {
						if err != ErrClosed {
							t.Errorf("send error %v", err)
						}
						return
					}
				}
			}(g)
		}
		// Drain so senders don't just block on a full queue.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if _, err := p.Recv(); err != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		p.Close()
		wg.Wait()
		<-drained
		if err := p.Send(seqMsg(0)); err != ErrClosed {
			t.Fatalf("send after close = %v, want ErrClosed", err)
		}
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

	// The pipe's pacer must advance by exactly the summed serialization times,
	// pacing the sender, for calibrated profiles with and without
	// jitter (jitter delays delivery, never transmission).
	nfCases := []struct {
		name  string
		prof  Profile
		sizes []int
	}{
		{"calibrated", Profile{Bandwidth: 1 << 20}, []int{10240, 10240, 5120}},
		{"jittered", Profile{Bandwidth: 1 << 20, Impair: Impairment{Jitter: time.Millisecond}}, []int{10240, 10240, 5120}},
	}
	for _, c := range nfCases {
		p := NewPipe(c.prof)
		start := time.Now()
		var want time.Duration
		for _, n := range c.sizes {
			if err := p.Send(make([]byte, n)); err != nil {
				t.Fatalf("%s: send: %v", c.name, err)
			}
			want += TransmitTime(n, c.prof.Bandwidth)
		}
		p.line.mu.Lock()
		free := p.line.free
		p.line.mu.Unlock()
		got := free.Sub(start)
		if got < want || got > want+30*time.Millisecond {
			t.Errorf("%s: line's next-free instant advanced %v, want ~%v", c.name, got, want)
		}
		if el := time.Since(start); el < want-TransmitTime(c.sizes[len(c.sizes)-1], c.prof.Bandwidth) {
			t.Errorf("%s: sender paced only %v for %v of wire time", c.name, el, want)
		}
		p.Close()
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

func TestJitterDelaysDelivery(t *testing.T) {
	p := NewPipe(Profile{Latency: 2 * time.Millisecond, Impair: Impairment{Jitter: 5 * time.Millisecond}, Seed: 8})
	defer p.Close()
	start := time.Now()
	for range 5 {
		if err := p.Send([]byte("j")); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		if _, err := p.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	el := time.Since(start)
	if el < 2*time.Millisecond {
		t.Errorf("delivery in %v beat the base latency", el)
	}
	if el > 60*time.Millisecond {
		t.Errorf("jittered delivery took %v; jitter should stay under base+5ms each", el)
	}
}
