// Package medium provides the paced, lossy, unidirectional message
// pipe used to simulate point-to-point media: Datakit circuit legs and
// Cyclone fibers. Every medium, ideal or paced, the Ethernet segment,
// the UART and IP's loopback included, is a Pacer booking plus one
// Delay line whose clock event runs the receiver: a send books the wire
// and puts the message on the line without sleeping out its wire time,
// and no process stands between the line and the receiver, which never
// parks. A Profile calibrates latency, bandwidth, maximum transfer
// unit, and loss so benchmarks can reproduce the relative speeds of
// the paper's media; the zero Profile
// is a line with nothing to pace, whose messages are due at once, so
// tests run at memory speed by the receive path the paced media run.
//
// All waiting goes through the profile's vclock.Clock, so a pipe built
// with a virtual clock simulates its latency and pacing in
// discrete-event time: an hour of WAN traffic replays in wall-clock
// milliseconds, deterministically.
package medium

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
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

// Pipe is a unidirectional ordered message pipe with medium effects:
// a Pacer booking plus one delay line whose event runs the receiver.
type Pipe struct {
	profile Profile
	ck      vclock.Clock
	im      *Impairer // nil on an unimpaired, lossless link
	closed  atomic.Bool

	line  Pacer
	delay Delay[[]byte]
	recv  func(msg []byte, err error) // the receiver Receive installed; nil: the mailbox

	// queue is the default receiver, which Recv reads. It is built the
	// first time a pipe with no receiver needs it, so a pipe whose
	// receiver is installed before traffic never has one.
	once  sync.Once
	queue *vclock.Mailbox[[]byte]
}

// NewPipe creates a pipe with the given profile, delivering to a
// mailbox that Recv reads until Receive installs another receiver.
func NewPipe(p Profile) *Pipe {
	pipe := new(Pipe)
	pipe.init(p)
	return pipe
}

// init readies a pipe held inside its owner.
func (pipe *Pipe) init(p Profile) {
	pipe.profile, pipe.ck = p, vclock.Or(p.Clock)
	pipe.line.Init(pipe.ck)
	if p.Impair.Armed(p.Loss) {
		pipe.im = NewImpairer(p.Clock, p.Seed+1, p.Loss, p.Impair)
	}
	pipe.delay.init(pipe.ck, 1024, pipe)
}

// mailbox returns the default receiver, building it on first use.
func (p *Pipe) mailbox() *vclock.Mailbox[[]byte] {
	p.once.Do(func() { p.queue = vclock.NewMailbox[[]byte](p.ck, 1024) })
	return p.queue
}

// arrive hands msg, at its instant on the line, to the receiver. A
// full mailbox refuses it: the line keeps it in hand until Recv makes
// room. A closed one takes nothing.
func (p *Pipe) arrive(msg []byte) bool {
	if p.recv != nil {
		p.recv(msg, nil)
		return true
	}
	if p.mailbox().TrySend(msg) {
		return true
	}
	if p.closed.Load() {
		block.PutBytes(msg)
		return true
	}
	return false
}

// Receive installs recv as the pipe's receiver in place of its mailbox.
// The line's clock event runs it with each message at its arrival
// instant, and Close runs it once with ErrClosed, so recv must not
// park. Install it before any traffic flows.
func (p *Pipe) Receive(recv func(msg []byte, err error)) { p.recv = recv }

// Pacer is the serialization point of a wire: the instant at which its
// transmitter is next free. Every paced medium — a pipe, the Ethernet
// segment, a UART — books its transmissions through one, so what goes
// out back to back queues behind what is already on the line. The zero
// Pacer is an idle line on a plain mutex; Init binds it to its line's
// clock.
type Pacer struct {
	mu   vclock.Lock
	free time.Time
}

// Init binds p's lock to ck, the clock its line runs on. It must be
// called before p is in use.
func (p *Pacer) Init(ck vclock.Clock) { p.mu.Init(ck) }

// Reserve books the line for busy, starting when it comes free and no
// earlier than now, and returns the instant the transmission ends: the
// last bit leaves then, and the message arrives a latency later.
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

// Send puts one message on the pipe, applying MTU, bandwidth pacing,
// the impairment model, and latency. It books the wire for the
// message's serialization time (a dropped message still occupies it)
// and puts each copy on the delay line to arrive when its last bit has
// left plus the latency and any impairment delay. The sender does not
// sleep out the wire time; it parks only while the line is full.
// What the pipe carries is a pooled buffer, and the receiver owns it.
func (p *Pipe) Send(msg []byte) error {
	cp := block.GetBytes(len(msg))
	copy(cp, msg)
	return p.SendOwned(cp)
}

// SendOwned is Send for a pooled buffer (block.GetBytes) whose
// ownership the caller hands over: the unimpaired path queues msg
// itself, skipping the defensive wire copy, and the pipe returns what
// it does not deliver to the pool. The caller must not touch msg
// afterwards.
func (p *Pipe) SendOwned(msg []byte) error {
	at, copies, err := p.book(msg)
	if err == nil && p.im == nil && !p.delay.Send(msg, at) {
		block.PutBytes(msg)
		err = ErrClosed
	}
	for _, e := range copies {
		if err == nil && !p.delay.Send(e.Data, at.Add(e.Delay)) {
			err = ErrClosed
		}
		if err != nil {
			block.PutBytes(e.Data)
		}
	}
	return err
}

// Put is SendOwned that never parks, so the caller may hold its locks
// across it and a line's event may send on another line: a full line
// drops the message, as a lossy wire would, and so does a closed pipe.
// It returns the instant the message's last bit leaves.
func (p *Pipe) Put(msg []byte) time.Time {
	at, copies, err := p.book(msg)
	if err != nil {
		return time.Time{}
	}
	if p.im == nil && !p.delay.Put(msg, at) {
		block.PutBytes(msg)
	}
	for _, e := range copies {
		if !p.delay.Put(e.Data, at.Add(e.Delay)) {
			block.PutBytes(e.Data)
		}
	}
	return at.Add(-p.profile.Latency)
}

// book checks msg and books its serialization time (a message the
// impairer drops still occupies the wire). It returns the instant the
// last bit leaves plus the latency, and on an impaired pipe the copies
// the impairer emits, each with bytes of its own and its extra delay;
// msg itself then goes back to the pool, as it does when book fails,
// so a send after Close returns ErrClosed deterministically.
func (p *Pipe) book(msg []byte) (time.Time, []Emission, error) {
	prof := p.profile
	if prof.MTU > 0 && len(msg) > prof.MTU {
		block.PutBytes(msg)
		return time.Time{}, nil, ErrTooLong
	}
	if p.closed.Load() {
		block.PutBytes(msg)
		return time.Time{}, nil, ErrClosed
	}
	at := p.line.Reserve(p.ck.Now(), TransmitTime(len(msg), prof.Bandwidth)).Add(prof.Latency)
	if p.im == nil {
		return at, nil, nil
	}
	copies := p.im.Apply(msg, nil)
	block.PutBytes(msg)
	return at, copies, nil
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

// Recv blocks for the next message the default receiver took. After
// Close it drains what was already delivered, then fails.
func (p *Pipe) Recv() ([]byte, error) {
	m, ok := p.mailbox().Recv()
	if !ok {
		return nil, ErrClosed
	}
	p.delay.Kick()
	return m, nil
}

// Close tears the pipe down: what is still on the line, or held back
// by its impairer, is lost (its buffers go back to the pool), and the
// receiver hears ErrClosed.
func (p *Pipe) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, msg := range p.delay.Close() {
		block.PutBytes(msg)
	}
	if p.im != nil {
		p.im.Close()
	}
	if p.recv != nil {
		p.recv(nil, ErrClosed)
	} else {
		p.mailbox().Close()
	}
}

// Duplex is one end of a bidirectional message link built from two
// pipes.
type Duplex struct {
	tx *Pipe
	rx *Pipe
}

// circuit is a whole link: both pipes, their lines inside them, and
// both ends, in one allocation.
type circuit struct {
	ab, ba Pipe
	a, b   Duplex
}

// NewDuplex returns the two ends of a link, each direction with
// profile p.
func NewDuplex(p Profile) (*Duplex, *Duplex) {
	c := new(circuit)
	c.ab.init(p)
	c.ba.init(p)
	c.a = Duplex{tx: &c.ab, rx: &c.ba}
	c.b = Duplex{tx: &c.ba, rx: &c.ab}
	return &c.a, &c.b
}

// Send transmits toward the peer end.
func (d *Duplex) Send(msg []byte) error { return d.tx.Send(msg) }

// SendOwned transmits a buffer whose ownership the caller hands over.
func (d *Duplex) SendOwned(msg []byte) error { return d.tx.SendOwned(msg) }

// Put transmits a buffer whose ownership the caller hands over, never
// parking (see Pipe.Put).
func (d *Duplex) Put(msg []byte) time.Time { return d.tx.Put(msg) }

// Receive installs the receiver of what the peer end sends (see
// Pipe.Receive).
func (d *Duplex) Receive(recv func(msg []byte, err error)) { d.rx.Receive(recv) }

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
