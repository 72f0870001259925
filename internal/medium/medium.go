// Package medium provides the paced, lossy, unidirectional message
// pipe used to simulate point-to-point media: Datakit circuit legs and
// Cyclone fibers. Every paced medium, the Ethernet segment of package
// ether included, is a Pacer reservation plus one Delay line. A Profile
// calibrates latency, bandwidth, maximum transfer unit, and loss so
// benchmarks can reproduce the relative speeds of the paper's media;
// the zero Profile delivers synchronously at memory speed for tests.
//
// All waiting goes through the profile's vclock.Clock, so a pipe built
// with a virtual clock simulates its latency and pacing in
// discrete-event time: an hour of WAN traffic replays in wall-clock
// milliseconds, deterministically.
package medium

import (
	"errors"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Profile characterizes one direction of a link.
type Profile struct {
	Latency   time.Duration // propagation delay per message
	Bandwidth int64         // bytes/second; 0 = unlimited
	MTU       int           // largest message; 0 = unlimited
	Loss      float64       // drop probability in [0,1)
	Seed      int64
	// Impair extends Loss into the full fault model: duplication,
	// reordering, corruption, jitter, bursty loss, and scheduled
	// partitions, all replayable from Seed. See Impairment.
	Impair Impairment
	// Clock schedules every sleep and timestamp. A vclock.Virtual here
	// turns the pipe into a discrete-event component. Only NewPipe
	// reads nil as the real clock; an Ethernet segment or a Datakit
	// switch needs one.
	Clock vclock.Clock
}

// Errors.
var (
	ErrClosed  = errors.New("medium: pipe closed")
	ErrTooLong = errors.New("medium: message exceeds MTU")
)

// Pipe is a unidirectional ordered message pipe with medium effects.
type Pipe struct {
	profile Profile
	ck      vclock.Clock
	im      *Impairer // nil on an unimpaired, lossless link

	queue *vclock.Mailbox[[]byte]
	delay *Delay[[]byte] // nil without latency or jitter: messages arrive as sent
	line  Pacer
}

// NewPipe creates a pipe with the given profile.
func NewPipe(p Profile) *Pipe {
	ck := vclock.Or(p.Clock)
	pipe := &Pipe{
		profile: p,
		ck:      ck,
		queue:   vclock.NewMailbox[[]byte](ck, 1024),
	}
	if p.Impair.Armed(p.Loss) {
		pipe.im = NewImpairer(p.Seed+1, p.Loss, p.Impair)
	}
	if p.Latency > 0 || p.Impair.Jitter > 0 {
		// Messages arrive Latency (plus any jitter) after transmission,
		// in order. A full receive queue parks the line, and a full line
		// parks the sender.
		pipe.delay = NewDelay(ck, 1024, func(msg []byte) { _ = pipe.queue.Send(msg) })
	}
	return pipe
}

// Pacer is the serialization point of a wire: the instant at which its
// transmitter is next free. Every paced medium — a pipe, the Ethernet
// segment, a UART — books its transmissions through one, so what goes
// out back to back queues behind what is already on the line. The zero
// Pacer is an idle line.
type Pacer struct {
	mu   sync.Mutex
	free time.Time
}

// Reserve books the line for busy, starting when it comes free and no
// earlier than now, and returns the instant the transmission ends; the
// sender sleeps until then.
func (p *Pacer) Reserve(now time.Time, busy time.Duration) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free.Before(now) {
		p.free = now
	}
	p.free = p.free.Add(busy)
	return p.free
}

// TransmitTime is the serialization time of n units at rate units per
// second — bytes at a bandwidth, or bits at a baud rate: how long the
// transmitter stays busy before the line is free again. A rate of 0 is
// an unpaced line.
func TransmitTime(n int, rate int64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(int64(n) * int64(time.Second) / rate)
}

// Send queues one message, applying MTU, bandwidth pacing, the
// impairment model, and latency. Pacing sleeps the sender, modeling
// the transmitter staying busy for size/bandwidth (dropped messages
// still occupy wire time); propagation latency is applied by the delay
// line without blocking the sender, so throughput pipelines.
func (p *Pipe) Send(msg []byte) error { return p.send(msg, false) }

// SendOwned is Send for a buffer whose ownership the caller hands
// over: the unimpaired path queues msg itself, skipping the defensive
// wire copy. The caller must not touch msg afterwards.
func (p *Pipe) SendOwned(msg []byte) error { return p.send(msg, true) }

func (p *Pipe) send(msg []byte, owned bool) error {
	prof := p.profile
	if prof.MTU > 0 && len(msg) > prof.MTU {
		return ErrTooLong
	}
	if p.queue.Closed() {
		return ErrClosed
	}
	if prof.Bandwidth > 0 {
		p.ck.SleepUntil(p.line.Reserve(p.ck.Now(), TransmitTime(len(msg), prof.Bandwidth)))
	}
	if p.im != nil {
		// The impairment path must copy even an owned buffer: the
		// impairer duplicates and corrupts wire copies independently,
		// so each delivery needs bytes of its own.
		for _, e := range p.im.Apply(msg, nil) {
			if err := p.emit(e.Data, e.Delay); err != nil {
				return err
			}
		}
		return nil
	}
	if !owned {
		msg = append([]byte(nil), msg...)
	}
	return p.emit(msg, 0)
}

// emit puts one wire copy on the delivery path. Both paths fail once
// the pipe is closed, so Send after Close returns ErrClosed
// deterministically — even mid-impairment.
func (p *Pipe) emit(msg []byte, extra time.Duration) error {
	if p.delay != nil {
		if !p.delay.Send(msg, p.ck.Now().Add(p.profile.Latency+extra)) {
			return ErrClosed
		}
		return nil
	}
	if p.queue.Send(msg) != nil {
		return ErrClosed
	}
	return nil
}

// Schedule returns the pipe's recorded impairment decisions (requires
// Profile.Impair.Record); nil on an unimpaired pipe.
func (p *Pipe) Schedule() []Decision {
	if p.im == nil {
		return nil
	}
	return p.im.Schedule()
}

// ImpairCounts returns the pipe's impairment counters; zero on an
// unimpaired pipe.
func (p *Pipe) ImpairCounts() Counts {
	if p.im == nil {
		return Counts{}
	}
	return p.im.Counts()
}

// Recv blocks for the next message. After Close it drains what was
// already delivered, then fails.
func (p *Pipe) Recv() ([]byte, error) {
	m, ok := p.queue.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return m, nil
}

// Close tears the pipe down; blocked receivers fail once the delivered
// backlog drains.
func (p *Pipe) Close() {
	if p.delay != nil {
		p.delay.Close()
	}
	p.queue.Close()
}

// Duplex is a bidirectional message link built from two pipes.
type Duplex struct {
	tx *Pipe
	rx *Pipe
}

// NewDuplex returns the two ends of a link, each with profile p.
func NewDuplex(p Profile) (*Duplex, *Duplex) {
	ab := NewPipe(p)
	ba := NewPipe(p)
	return &Duplex{tx: ab, rx: ba}, &Duplex{tx: ba, rx: ab}
}

// AssembleDuplex builds a Duplex from explicit pipes, for tests that
// need asymmetric link behavior (e.g. a direction that drops
// everything).
func AssembleDuplex(tx, rx *Pipe) *Duplex { return &Duplex{tx: tx, rx: rx} }

// Send transmits toward the peer end.
func (d *Duplex) Send(msg []byte) error { return d.tx.Send(msg) }

// SendOwned transmits a buffer whose ownership the caller hands over.
func (d *Duplex) SendOwned(msg []byte) error { return d.tx.SendOwned(msg) }

// Recv receives from the peer end.
func (d *Duplex) Recv() ([]byte, error) { return d.rx.Recv() }

// Close closes both directions.
func (d *Duplex) Close() {
	d.tx.Close()
	d.rx.Close()
}

// MTU reports the link MTU (0 = unlimited).
func (d *Duplex) MTU() int { return d.tx.profile.MTU }

// Clock returns the clock the link waits on.
func (d *Duplex) Clock() vclock.Clock { return d.tx.ck }

// Impaired reports whether either direction of the link has an
// impairer: only then can a message arrive damaged.
func (d *Duplex) Impaired() bool { return d.tx.im != nil || d.rx.im != nil }

// ImpairCounts sums the impairment counters of both directions of the
// link (tx and rx are the two pipes of the circuit, so either end
// reports the whole link).
func (d *Duplex) ImpairCounts() Counts {
	c := d.tx.ImpairCounts()
	c.Add(d.rx.ImpairCounts())
	return c
}
