// Package urp implements URP, the Universal Receiver Protocol that
// carries Plan 9 traffic over Datakit virtual circuits (§2.3, §8).
// URP is the narrow, cell-oriented protocol of Fraser's Datakit: small
// blocks, mod-8 sequence numbers, a window of at most seven
// outstanding blocks, go-back-N recovery driven by the receiver
// (REJ) and sender enquiries (ENQ). Those properties — tiny blocks
// and a shallow window — are exactly why URP/Datakit is the slowest
// row of the paper's Table 1, and the simulation keeps them.
//
// The protocol runs over any cell transport (the Wire interface), which
// hands what arrives to Conn.Input; package datakit supplies circuits.
package urp

import (
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Wire is a cell transport: ordered, possibly lossy delivery of small
// cells. SendCell takes ownership of p, never parks (URP sends with its
// lock held and from the wire's own clock event) and returns the
// instant the cell's last bit leaves; the transport may extend p in
// place within its capacity with link framing such as an FCS, and URP
// builds cells with tail slack for exactly that. The transport hands
// each arriving cell to the Conn's Input, and an error once when it
// closes.
type Wire interface {
	SendCell(p []byte) time.Time
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

	mu   vclock.Lock
	cond vclock.Cond
	due  vclock.Deadline // when dueLocked comes round, death, or the close's end

	// Sender: blocks [sndUna, sndNxt) are in flight (mod-8).
	sndUna   int
	sndNxt   int
	unacked  []sentBlock // parallel to seq range; Write never grows it past window
	window   [Window]sentBlock
	lastSend time.Time
	enqSent  bool
	// retransNeeded has the deadline resend the window, so a volley of
	// REJs costs one go-back-N pass, not one per REJ.
	retransNeeded bool

	// Receiver. reassembly is a pooled buffer, moved up a size class
	// when a message outgrows it and handed up as the message's block.
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
	hungup  bool // the hangup cell is sent: the end unplugs the wire

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

// Init starts URP on a wire, in place on a Conn its owner holds (a
// Datakit call's end), with ck driving the protocol timers (enquiry,
// retransmit, death). stats may be nil. The wire's owner hands what
// arrives to Input from before the first write. The Conn must not be
// copied afterwards.
func (c *Conn) Init(wire Wire, stats *Stats, ck vclock.Clock) {
	if stats == nil {
		stats = &Stats{}
	}
	c.wire, c.ck, c.stats = wire, ck, stats
	c.unacked = c.window[:0]
	c.rstream = streams.NewConv(1<<22, ck, c)
	c.mu.Init(ck)
	c.cond.Init(ck, &c.mu)
	c.due.Init(ck, &c.mu, deathTime, (*owner)(c))
}

// owner is the conversation as its deadline sees it.
type owner Conn

func (o *owner) Due() time.Time { return (*Conn)(o).dueLocked() }
func (o *owner) Fire()          { (*Conn)(o).timeoutLocked() }
func (o *owner) End()           { (*Conn)(o).endLocked() }

func (o *owner) Die() {
	o.mu.Unlock()
	(*Conn)(o).hangup()
	o.mu.Lock()
}

// sendCell frames one cell in a pooled buffer, with capacity slack for
// the link layer's FCS, hands it to the wire, and returns the instant
// its last bit leaves.
func (c *Conn) sendCell(typ, seq int, flags byte, data []byte) time.Time {
	cell := block.GetBytes(hdrLen + len(data))
	cell[0] = byte(typ)
	cell[1] = byte(seq)
	cell[2] = flags
	cell[3] = byte(len(data) >> 8)
	cell[4] = byte(len(data))
	copy(cell[hdrLen:], data)
	return c.wire.SendCell(cell)
}

// Write sends one delimited message as a sequence of blocks, parking
// while the window is full, and returns once its last bit has left:
// the writer waits out the wire time, never the line.
func (c *Conn) Write(p []byte) (int, error) {
	vclock.MightPark(c.ck, "urp.Conn.Write")
	total := 0
	var left time.Time
	for {
		c.mu.Lock()
		for !c.dead && !c.closed && len(c.unacked) >= Window {
			c.cond.Wait()
		}
		if c.dead || c.closed {
			c.mu.Unlock()
			return total, vfs.ErrHungup
		}
		n := min(len(p)-total, BlockSize)
		var flags byte
		if total+n == len(p) {
			flags = flagEOM
		}
		seq := c.sndNxt
		c.sndNxt = (c.sndNxt + 1) % SeqMod
		// The retransmit copy lives in a pooled buffer, released when
		// the ack drops it from the window.
		data := block.GetBytes(n)
		copy(data, p[total:total+n])
		c.lastSend = c.ck.Now()
		c.unacked = append(c.unacked, sentBlock{seq: seq, flags: flags, data: data})
		c.stats.Blocks.Add(1)
		c.trace.Emit(obs.EvSend, int64(seq), int64(n))
		left = c.sendCell(cellData, seq, flags, data)
		c.due.Update()
		c.mu.Unlock()
		total += n
		if total == len(p) {
			if left.After(c.ck.Now()) {
				c.ck.SleepUntil(left)
			}
			return total, nil
		}
	}
}

// Read returns one delimited message (or part, if the buffer is
// short).
func (c *Conn) Read(p []byte) (int, error) { return c.rstream.Read(p) }

// Stream returns the circuit's stream, whose device end is Write.
func (c *Conn) Stream() *streams.Stream { return c.rstream }

// Input takes one cell off the wire, on the wire's clock event: the
// receive half of the protocol runs there, with no process of its own,
// and never parks. The cell is the Conn's; recvData copies out what it keeps, so
// the cell recycles as soon as the switch returns. An error means the
// wire has closed.
func (c *Conn) Input(cell []byte, err error) {
	if err != nil {
		c.hangup()
		return
	}
	defer block.PutBytes(cell)
	if len(cell) < hdrLen {
		return
	}
	typ := int(cell[0])
	seq := int(cell[1])
	flags := cell[2]
	n := int(cell[3])<<8 | int(cell[4])
	if n > len(cell)-hdrLen {
		return
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
		// Answer with the receiver's state: an ACK of what we
		// expect next.
		c.mu.Lock()
		c.sendCell(cellAck, c.rcvNext, 0, nil)
		c.mu.Unlock()
	case cellHup:
		c.hangup()
	}
}

// recvData applies the universal-receiver rule: accept exactly the
// next block in sequence, reject anything else.
func (c *Conn) recvData(seq int, flags byte, data []byte) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock() // nothing reaches a stream that has hung up
		return
	}
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
		c.trace.Emit(obs.EvReject, int64(c.rcvNext), int64(seq))
		c.sendCell(cellRej, c.rcvNext, 0, nil)
		c.mu.Unlock()
		return
	}
	if len(c.reassembly) == 0 && c.rstream.Full() {
		// No room for a new message: its first cell is refused,
		// unacknowledged, and the sender's window and enquiry carry
		// the backpressure. The refusal stands in for the gap's REJ,
		// which would only have the window resent into a full stream.
		c.rejSent = true
		c.mu.Unlock()
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
		c.rstream.Produce(msg)
		c.sendCell(cellAck, next, 0, nil)
		return
	}
	c.reassemble(data)
	var msg *block.Block
	if flags&flagEOM != 0 {
		// The reassembled message goes up as it is: the block adopts
		// the pooled buffer, and the next message takes another.
		msg = block.FromBytes(c.reassembly)
		msg.Delim = true
		c.reassembly = nil
	}
	next := c.rcvNext
	c.mu.Unlock()
	if msg != nil {
		c.rstream.Produce(msg) // admitted at its first cell, so it has room
	}
	c.sendCell(cellAck, next, 0, nil)
}

// reassemble appends data to the message being put back together. A
// buffer it outgrows goes back to the pool for one of the next class.
func (c *Conn) reassemble(data []byte) {
	n := len(c.reassembly)
	if n+len(data) > cap(c.reassembly) {
		buf := block.GetBytes(n + len(data))
		if c.reassembly != nil {
			copy(buf, c.reassembly)
			block.PutBytes(c.reassembly)
		}
		c.reassembly = buf[:n]
	}
	c.reassembly = append(c.reassembly, data...)
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
	k := 0
	for ; k < len(c.unacked) && c.unacked[k].seq != seq; k++ {
		block.PutBytes(c.unacked[k].data)
		c.sndUna = (c.sndUna + 1) % SeqMod
	}
	// The rest moves to the front of the window in place, so Write's
	// append reuses it.
	n := copy(c.unacked, c.unacked[k:])
	clear(c.unacked[n:])
	c.unacked = c.unacked[:n]
	c.retransNeeded = len(c.unacked) > 0 && (c.retransNeeded || rej || wasEnq && k == 0)
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

// timeoutLocked resends what dueLocked said was due.
func (c *Conn) timeoutLocked() {
	c.lastSend = c.ck.Now()
	if !c.retransNeeded {
		c.enqSent = true
		c.stats.Enquiries.Add(1)
		c.trace.Emit(obs.EvQuery, 0, 0)
		c.sendCell(cellEnq, 0, 0, nil)
		return
	}
	c.retransNeeded = false // go-back-N
	for _, b := range c.unacked {
		c.trace.Emit(obs.EvRetransmit, int64(b.seq), 0)
		c.stats.Retransmits.Add(1)
		c.sendCell(cellData, b.seq, b.flags, b.data)
	}
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
// acknowledged (500 ms at most), sends the hangup cell after them, and
// only then unplugs the wire — so data written just before close is not
// lost in flight. Data that arrived and was never read is discarded.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	limit := c.ck.Now().Add(500 * time.Millisecond)
	c.due.End(limit)
	for len(c.unacked) > 0 && !c.dead && c.ck.Now().Before(limit) {
		c.cond.Wait()
	}
	c.sendCell(cellHup, 0, 0, nil)
	c.hungup = true
	c.due.End(c.ck.Now().Add(250 * time.Millisecond))
	c.mu.Unlock()
	// The hangup wakes a parked reader; the close then frees whatever
	// nobody read, and a late arrival is discarded on the dead stream.
	c.rstream.HangupUp()
	c.rstream.Close()
	return nil
}

// endLocked is the close's end, which the deadline runs when the linger
// is over and, once the hangup has had 250 ms to propagate, to unplug
// the wire; the wire's close reaches Input, which marks the circuit dead.
func (c *Conn) endLocked() {
	c.cond.Broadcast() // the closer, waiting out the linger
	if c.hungup {
		c.mu.Unlock()
		c.wire.Close()
		c.mu.Lock()
	}
}

// Dead reports whether the circuit has hung up.
func (c *Conn) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead || c.closed
}
