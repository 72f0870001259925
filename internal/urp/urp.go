// Package urp implements URP, the Universal Receiver Protocol that
// carries Plan 9 traffic over Datakit virtual circuits (§2.3, §8).
// URP is the narrow, cell-oriented protocol of Fraser's Datakit: small
// blocks, mod-8 sequence numbers, a window of at most seven
// outstanding blocks, go-back-N recovery driven by the receiver
// (REJ) and sender enquiries (ENQ). Those properties — tiny blocks
// and a shallow window — are exactly why URP/Datakit is the slowest
// row of the paper's Table 1, and the simulation keeps them.
//
// The protocol runs over any cell transport (the Wire interface);
// package datakit supplies circuits.
package urp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Wire is a cell transport: ordered, possibly lossy delivery of small
// cells. SendCell takes ownership of p — the caller never touches the
// cell again — and the transport may extend it in place within its
// capacity with link framing such as an FCS; URP builds cells with
// tail slack for exactly that.
type Wire interface {
	SendCell(p []byte) error
	RecvCell() ([]byte, error)
	Close() error
}

// Protocol constants.
const (
	// BlockSize is the URP block: Datakit moved small blocks, not
	// Ethernet-sized frames.
	BlockSize = 1024
	// SeqMod is the sequence space: 3 bits.
	SeqMod = 8
	// Window is the outstanding-block limit: at most seven blocks in
	// flight, the maximum the mod-8 sequence space distinguishes
	// unambiguously under go-back-N (a full window of eight would make
	// "all acked" and "none acked" the same number).
	Window = 7
)

// Cell types.
const (
	cellData = iota
	cellAck  // ack[seq]: everything before seq received
	cellRej  // rej[seq]: retransmit from seq
	cellEnq  // sender asks "what have you got?"
	cellHup  // circuit hangup
)

// Cell layout: type[1] seq[1] flags[1] len[2] data...
const hdrLen = 5

// flagEOM marks the final block of a message (the BOT/BOTM trailer of
// real URP, i.e. the delimiter).
const flagEOM = 0x01

const (
	enqTimeout = 50 * time.Millisecond
	deathTime  = 30 * time.Second
)

// Stats counts protocol events (for the ablation benches).
type Stats struct {
	Blocks      atomic.Int64
	Retransmits atomic.Int64
	Rejects     atomic.Int64
	Enquiries   atomic.Int64
}

// Conn runs URP over a wire. Both ends are symmetric.
type Conn struct {
	wire  Wire
	ck    vclock.Clock
	stats *Stats

	mu   sync.Mutex
	cond vclock.Cond
	due  vclock.Deadline // when dueLocked comes round, or death

	// Sender: blocks [sndUna, sndNxt) are in flight (mod-8).
	sndUna   int
	sndNxt   int
	unacked  []sentBlock // parallel to seq range
	lastSend time.Time
	enqSent  bool
	// retransNeeded has the deadline resend the window. The reader
	// never retransmits inline: a go-back-N burst can block on a paced
	// wire, and a reader that stops draining while its peer does the
	// same deadlocks the circuit.
	retransNeeded bool

	// Receiver.
	rcvNext    int
	reassembly []byte
	// rejSent damps the REJ flood: one REJ per gap, cleared when
	// in-sequence delivery resumes. (A lost REJ is recovered by the
	// sender's enquiry.) Without this, every duplicate cell of a
	// go-back-N burst provokes another REJ, each REJ another burst.
	rejSent bool

	rstream *streams.Stream
	closed  bool
	dead    bool

	// trace is the circuit's event ring (obs.Tracer); the datakit
	// device serves it as the conversation's trace file.
	trace obs.Ring
}

var _ obs.Tracer = (*Conn)(nil)

// Trace implements obs.Tracer.
func (c *Conn) Trace() *obs.Ring { return &c.trace }

type sentBlock struct {
	seq   int
	flags byte
	data  []byte
}

// NewClock starts URP on a wire, with ck driving the protocol timers
// (enquiry, retransmit, death). stats may be nil.
func NewClock(wire Wire, stats *Stats, ck vclock.Clock) *Conn {
	if stats == nil {
		stats = &Stats{}
	}
	c := &Conn{
		wire:    wire,
		ck:      ck,
		stats:   stats,
		rstream: streams.NewClock(1<<22, ck, nil),
	}
	c.cond.Init(ck, &c.mu)
	c.due.Init(ck, &c.mu, deathTime, c.dueLocked, c.timeoutLocked, func() {
		c.mu.Unlock()
		c.hangup()
		c.mu.Lock()
	})
	ck.Go(c.reader)
	return c
}

// makeCell frames one cell. Pool-backed, with size-class capacity
// slack behind len so the link layer can append its FCS without
// reallocating; ownership transfers to the wire on send.
func makeCell(typ, seq int, flags byte, data []byte) []byte {
	cell := block.GetBytes(hdrLen + len(data))
	cell[0] = byte(typ)
	cell[1] = byte(seq)
	cell[2] = flags
	cell[3] = byte(len(data) >> 8)
	cell[4] = byte(len(data))
	copy(cell[hdrLen:], data)
	return cell
}

func (c *Conn) sendCell(typ, seq int, flags byte, data []byte) error {
	return c.wire.SendCell(makeCell(typ, seq, flags, data))
}

// Write sends one delimited message as a sequence of blocks, blocking
// while the window is full.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for {
		c.mu.Lock()
		for !c.dead && !c.closed && len(c.unacked) >= Window {
			c.cond.Wait()
		}
		if c.dead || c.closed {
			c.mu.Unlock()
			return total, vfs.ErrHungup
		}
		n := len(p) - total
		if n > BlockSize {
			n = BlockSize
		}
		var flags byte
		if total+n == len(p) {
			flags = flagEOM
		}
		seq := c.sndNxt
		c.sndNxt = (c.sndNxt + 1) % SeqMod
		// The retransmit copy lives in a pooled buffer, released when
		// the ack drops it from the window. The framed cell is built
		// here too, so after this point b.data is only ever touched
		// under c.mu (retransmit re-frames under the lock) and the
		// (possibly paced, possibly blocking) wire send happens with
		// the lock released.
		data := block.GetBytes(n)
		copy(data, p[total:total+n])
		c.lastSend = c.ck.Now()
		c.unacked = append(c.unacked, sentBlock{seq: seq, flags: flags, data: data})
		cell := makeCell(cellData, seq, flags, data)
		c.stats.Blocks.Add(1)
		c.trace.Emit(obs.EvSend, int64(seq), int64(n))
		c.due.Update()
		c.mu.Unlock()
		c.wire.SendCell(cell)
		total += n
		if total == len(p) {
			return total, nil
		}
	}
}

// Read returns one delimited message (or part, if the buffer is
// short).
func (c *Conn) Read(p []byte) (int, error) { return c.rstream.Read(p) }

// reader is the receive kernel process.
func (c *Conn) reader() {
	for {
		cell, err := c.wire.RecvCell()
		if err != nil {
			c.hangup()
			return
		}
		// The wire hands over the cell buffer (each delivery has bytes
		// of its own); recvData copies at both of its boundaries, so
		// the cell recycles as soon as the switch returns.
		if len(cell) < hdrLen {
			block.PutBytes(cell)
			continue
		}
		typ := int(cell[0])
		seq := int(cell[1])
		flags := cell[2]
		n := int(cell[3])<<8 | int(cell[4])
		if n > len(cell)-hdrLen {
			block.PutBytes(cell)
			continue
		}
		data := cell[hdrLen : hdrLen+n]
		switch typ {
		case cellData:
			c.recvData(seq, flags, data)
		case cellAck:
			c.recvAck(seq, false)
		case cellRej:
			c.stats.Rejects.Add(1)
			c.recvAck(seq, true) // everything before seq arrived
		case cellEnq:
			// Answer with the receiver's state: an ACK of what
			// we expect next.
			c.mu.Lock()
			next := c.rcvNext
			c.mu.Unlock()
			c.sendCell(cellAck, next, 0, nil)
		case cellHup:
			c.hangup()
			return
		}
		block.PutBytes(cell)
	}
}

// recvData applies the universal-receiver rule: accept exactly the
// next block in sequence, reject anything else.
func (c *Conn) recvData(seq int, flags byte, data []byte) {
	c.mu.Lock()
	c.due.Heard()
	if seq != c.rcvNext {
		// Out of order: REJ asks for retransmission from the block
		// we expect — once per gap, or every duplicate cell of the
		// resulting go-back-N burst would provoke a fresh REJ and
		// the circuit would melt down trading bursts for REJs.
		if c.rejSent {
			c.mu.Unlock()
			return
		}
		c.rejSent = true
		next := c.rcvNext
		c.trace.Emit(obs.EvReject, int64(next), int64(seq))
		c.mu.Unlock()
		c.sendCell(cellRej, next, 0, nil)
		return
	}
	c.rejSent = false
	c.trace.Emit(obs.EvRecv, int64(seq), int64(len(data)))
	c.rcvNext = (c.rcvNext + 1) % SeqMod
	if flags&flagEOM != 0 && len(c.reassembly) == 0 {
		// Single-cell message: skip the reassembly buffer. The stream
		// copies at this boundary (the cell is the wire's buffer), so
		// this is the path's one copy.
		next := c.rcvNext
		c.mu.Unlock()
		msg := streams.NewBlock(data)
		msg.Delim = true
		c.rstream.DeviceUp(msg)
		c.sendCell(cellAck, next, 0, nil)
		return
	}
	c.reassembly = append(c.reassembly, data...)
	var msg *block.Block
	if flags&flagEOM != 0 {
		// Hand up a pooled copy and keep the scratch for the next
		// message: the reassembly buffer grows to the message size
		// once per circuit instead of once per message.
		msg = block.Copy(c.reassembly, 0)
		msg.Delim = true
		c.reassembly = c.reassembly[:0]
	}
	next := c.rcvNext
	c.mu.Unlock()
	if msg != nil {
		c.rstream.DeviceUp(msg)
	}
	c.sendCell(cellAck, next, 0, nil)
}

// recvAck drops acknowledged blocks: ack(seq) says the receiver now
// expects seq, i.e. everything before it arrived. The deadline resends
// the window, coalescing a volley of REJs into one go-back-N pass,
// after a REJ and after an ack that answered our enquiry but freed
// nothing: the receiver never saw the head of the window, and with no
// out-of-order arrival to provoke a REJ it never will, so without a
// resend the circuit livelocks trading ENQ for no-progress ACKs.
func (c *Conn) recvAck(seq int, rej bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.due.Heard()
	c.trace.Emit(obs.EvAck, int64(seq), 0)
	wasEnq := c.enqSent
	c.enqSent = false
	freed := false
	for len(c.unacked) > 0 {
		if c.unacked[0].seq == seq {
			break // not yet acknowledged
		}
		block.PutBytes(c.unacked[0].data)
		c.unacked[0] = sentBlock{}
		c.unacked = c.unacked[1:]
		c.sndUna = (c.sndUna + 1) % SeqMod
		freed = true
	}
	c.retransNeeded = len(c.unacked) > 0 && (c.retransNeeded || rej || wasEnq && !freed)
	c.cond.Broadcast()
	c.due.Update()
}

// dueLocked is when the circuit next resends while blocks are
// outstanding: the window at once when asked to, or an enquiry when
// acknowledgements stall. It keeps counting through the close linger,
// so the final blocks still get retransmitted if their acks are lost.
func (c *Conn) dueLocked() time.Time {
	switch {
	case c.dead || len(c.unacked) == 0:
		return time.Time{}
	case c.retransNeeded:
		return c.lastSend
	}
	return c.lastSend.Add(enqTimeout)
}

// timeoutLocked resends what dueLocked said was due, dropping the lock
// around the (possibly paced, possibly blocking) wire.
func (c *Conn) timeoutLocked() {
	c.lastSend = c.ck.Now()
	if !c.retransNeeded {
		c.enqSent = true
		c.stats.Enquiries.Add(1)
		c.trace.Emit(obs.EvQuery, 0, 0)
		c.mu.Unlock()
		c.sendCell(cellEnq, 0, 0, nil)
		c.mu.Lock()
		return
	}
	// Go-back-N. The cells are framed under the lock — the pooled block
	// data must not be read once the lock drops, or an ack racing the
	// burst could recycle it.
	c.retransNeeded = false
	cells := make([][]byte, 0, len(c.unacked))
	for _, b := range c.unacked {
		c.trace.Emit(obs.EvRetransmit, int64(b.seq), 0)
		cells = append(cells, makeCell(cellData, b.seq, b.flags, b.data))
	}
	c.mu.Unlock()
	for _, cell := range cells {
		c.stats.Retransmits.Add(1)
		c.wire.SendCell(cell)
	}
	c.mu.Lock()
}

func (c *Conn) hangup() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.cond.Broadcast()
	c.due.Update()
	c.trace.Emit(obs.EvHangup, 0, 0)
	c.mu.Unlock()
	c.rstream.HangupUp()
}

// Close hangs up the circuit: it lingers until outstanding blocks are
// acknowledged (bounded), sends the hangup cell after them, and only
// then unplugs the wire — so data written just before close is not
// lost in flight. Data that arrived and was never read is discarded.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	lingered := false
	t := c.ck.AfterFunc(500*time.Millisecond, func() {
		c.mu.Lock()
		lingered = true
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	for len(c.unacked) > 0 && !c.dead && !lingered {
		c.cond.Wait()
	}
	c.mu.Unlock()
	t.Stop()
	c.sendCell(cellHup, 0, 0, nil)
	// Let the hangup propagate before unplugging.
	c.ck.AfterFunc(250*time.Millisecond, func() {
		c.mu.Lock()
		c.dead = true
		c.cond.Broadcast()
		c.due.Update()
		c.mu.Unlock()
		c.wire.Close()
	})
	// The hangup wakes a parked reader; the close then frees whatever
	// nobody read, and a late arrival is discarded on the dead stream.
	c.rstream.HangupUp()
	c.rstream.Close()
	return nil
}

// Dead reports whether the circuit has hung up.
func (c *Conn) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead || c.closed
}
