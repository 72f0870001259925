// Package tcp implements TCP over the simulated IP stack: the paper's
// heavyweight baseline (§3: "TCP has a high overhead and does not
// preserve delimiters"). It is a real byte-stream TCP — three-way
// handshake, byte sequence space, sliding window with receiver
// advertisement, adaptive retransmission, FIN teardown — simplified
// where the paper's comparisons do not care: no congestion control, no
// SACK (retransmission is go-back-N), no urgent data, no options, and
// a short TIME-WAIT. Delimiters are deliberately NOT preserved; 9P
// over TCP therefore needs the marshaling adapter, exactly as §2.1
// describes.
package tcp

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// HdrLen is our simplified TCP header: src[2] dst[2] seq[4] ack[4]
// flags[1] pad[1] win[2] sum[2].
const HdrLen = 18

var be = binary.BigEndian

// Header flags.
const (
	flagFIN = 1 << iota
	flagSYN
	flagRST
	flagACK
)

// BufSize is the send and receive buffer size (and the largest window
// ever advertised).
const BufSize = 64 * 1024

// Connection states: the four every xport conversation passes through,
// under TCP's names for them, then TCP's own.
const (
	Closed      = xport.Closed
	Listen      = xport.Listening
	SynSent     = xport.Connecting
	Established = xport.Established
)
const (
	SynRcvd = xport.NStates + iota
	FinWait1
	FinWait2
	CloseWait
	LastAck
	Closing
	TimeWait
)

var stateNames = []string{
	"Closed", "Listen", "Syn_sent", "Established", "Syn_rcvd",
	"Finwait1", "Finwait2", "Close_wait", "Last_ack", "Closing", "Time_wait",
}

const (
	minRTO      = 20 * time.Millisecond
	maxRTO      = 2 * time.Second
	synRetry    = 200 * time.Millisecond
	deathTime   = 30 * time.Second
	timeWaitDur = 200 * time.Millisecond
	// ephemBase is where locally chosen ports start.
	ephemBase = 5000
)

// Proto is a machine's TCP protocol device. The embedded table holds
// the conversations, listeners and ports, the clock and the RTT
// histogram.
type Proto struct {
	xport.Table

	Retransmits atomic.Int64
	SegsSent    atomic.Int64
	SegsRcvd    atomic.Int64
}

var _ xport.Proto = (*Proto)(nil)

// New creates the TCP device on a stack and registers its demux.
func New(stack *ip.Stack) *Proto {
	p := &Proto{}
	p.Init(stack, ephemBase, stateNames, p.spawn)
	p.Stats.
		AddAtomic("segs-sent", &p.SegsSent).
		AddAtomic("segs-rcvd", &p.SegsRcvd).
		AddAtomic("retransmits", &p.Retransmits).
		AddHist("rtt", &p.RTTHist)
	stack.Register(ip.ProtoTCP, p.recv)
	return p
}

// Name implements xport.Proto.
func (p *Proto) Name() string { return "tcp" }

// NewConn implements xport.Proto.
func (p *Proto) NewConn() (xport.Conn, error) { return p.newConn(), nil }

func (p *Proto) newConn() *Conn {
	c := &Conn{proto: p}
	c.Init(&p.Table, c)
	c.due.Init(p.Ck, &c.Mu, deathTime, (*owner)(c))
	return c
}

// owner is the conversation as its deadline sees it.
type owner Conn

func (o *owner) Due() time.Time { return (*Conn)(o).dueLocked() }
func (o *owner) Fire()          { (*Conn)(o).timeoutLocked() }
func (o *owner) End()           { o.EndLocked() }

func (o *owner) Die() {
	o.Err = vfs.ErrTimedOut
	(*Conn)(o).dieLocked()
}

type header struct {
	src, dst uint16
	seq, ack uint32
	flags    byte
	win      uint16
}

// marshalBlock builds the segment in a pooled block with headroom for
// the IP and Ethernet headers, so lower layers prepend in place.
func marshalBlock(h header, data []byte) *block.Block {
	b := block.Alloc(HdrLen+len(data), block.DefaultHeadroom)
	p := b.Bytes()
	copy(p[HdrLen:], data)
	fillHeader(p, h)
	return b
}

// fillHeader writes the header into p[:HdrLen] and checksums the whole
// packet. Every header byte is written explicitly — including the
// reserved one and the checksum field before summing — because pooled
// buffers arrive with stale contents, unlike a fresh make.
func fillHeader(p []byte, h header) {
	be.PutUint16(p[0:], h.src)
	be.PutUint16(p[2:], h.dst)
	be.PutUint32(p[4:], h.seq)
	be.PutUint32(p[8:], h.ack)
	p[12], p[13] = h.flags, 0
	be.PutUint16(p[14:], h.win)
	be.PutUint16(p[16:], 0)
	be.PutUint16(p[16:], ip.Checksum(p))
}

func unmarshal(p []byte) (header, []byte, bool) {
	var h header
	if len(p) < HdrLen {
		return h, nil, false
	}
	// Verified in place: the checksum field sits at an even offset, so
	// the sum over the packet with the carried value included is zero
	// exactly when the value is the sum of the rest.
	if ip.Checksum(p) != 0 {
		return h, nil, false
	}
	h.src, h.dst = be.Uint16(p[0:]), be.Uint16(p[2:])
	h.seq, h.ack = be.Uint32(p[4:]), be.Uint32(p[8:])
	h.flags, h.win = p[12], be.Uint16(p[14:])
	return h, p[HdrLen:], true
}

// recv takes an incoming segment to its conversation.
func (p *Proto) recv(src, dst ip.Addr, payload []byte) {
	h, data, ok := unmarshal(payload)
	if !ok {
		return
	}
	p.SegsRcvd.Add(1)
	cv := p.Demux(src, h.src, h.dst, h.flags&flagSYN != 0 && h.flags&flagACK == 0, h.seq)
	if cv == nil {
		if h.flags&flagRST == 0 {
			rst := marshalBlock(header{src: h.dst, dst: h.src, seq: h.ack,
				ack: h.seq + 1, flags: flagRST | flagACK}, nil)
			p.Stack.SendBlock(ip.ProtoTCP, dst, src, rst)
		}
		return
	}
	cv.Self.(*Conn).segment(h, data)
}

// spawn is the table's hook: the passive (Syn_rcvd) end for a SYN that
// reached listener l, answered at once with SYN|ACK.
func (p *Proto) spawn(l *xport.Conv, raddr ip.Addr, rport, lport uint16, peer uint32) *xport.Conv {
	c := p.newConn()
	c.Passive(l, raddr, rport, lport)
	c.St = SynRcvd
	c.sndUna, c.sndNxt = c.ISS, c.ISS+1
	c.rcvNxt = peer + 1
	c.oldestTx = p.Ck.Now()
	c.sendSegLocked(flagSYN, c.ISS, nil)
	c.due.Update()
	return &c.Conv
}

// Conn is a TCP conversation. The embedded scaffold holds the lock,
// state, endpoints, initial send sequence number, round-trip timer and
// read queue.
type Conn struct {
	xport.Conv
	proto *Proto

	due vclock.Deadline // when dueLocked comes round, death, or the close's end

	// Send side: sndBuf holds bytes [sndUna, sndUna+len). Acks advance
	// its start within sndArr, the backing array; a write that would
	// not fit behind it moves the bytes back to sndArr's front.
	sndUna     uint32
	sndNxt     uint32
	sndBuf     []byte
	sndArr     []byte
	sndWnd     uint16 // peer's advertised window
	finSent    bool
	finPending bool // close requested, data still draining
	finSeq     uint32
	oldestTx   time.Time // when the retransmission (or Time_wait) timer started

	// Receive side.
	rcvNxt  uint32
	ooo     map[uint32][]byte
	finRcvd bool
	finAt   uint32

	closed bool
}

var _ xport.Conn = (*Conn)(nil)

// Connect implements xport.Conn: the active open.
func (c *Conn) Connect(addr string) error {
	if err := c.BeginConnect(addr); err != nil {
		return err
	}
	c.sndUna, c.sndNxt = c.ISS, c.ISS+1
	c.oldestTx = c.proto.Ck.Now()
	c.sendSegLocked(flagSYN, c.ISS, nil)
	c.due.Update()
	c.Mu.Unlock()
	return c.WaitOpen()
}

// rcvWndLocked is the window we advertise.
func (c *Conn) rcvWndLocked() uint16 {
	// The 16-bit window field caps what we can say.
	return uint16(min(max(BufSize-c.Rq.QueuedBytes(), 0), 0xffff))
}

// sendSegLocked transmits one segment with the current ack state.
func (c *Conn) sendSegLocked(flags byte, seq uint32, data []byte) {
	h := header{src: c.Lport, dst: c.Rport, seq: seq,
		ack: c.rcvNxt, flags: flags | flagACK, win: c.rcvWndLocked()}
	if c.St == SynSent {
		h.flags = flags // no ACK before we have rcvNxt
	}
	// data may alias sndBuf: marshalBlock copies it into a pooled block,
	// which IP takes on this goroutine — its send path never parks.
	c.proto.SegsSent.Add(1)
	c.proto.Stack.SendBlock(ip.ProtoTCP, c.Laddr, c.Raddr, marshalBlock(h, data))
}

// Write implements xport.Conn: bytes enter the send buffer and are
// pumped out as MTU-sized segments within the send window. The writer
// blocks while the buffer is full — the byte-stream backpressure TCP
// provides in place of delimiters.
func (c *Conn) Write(p []byte) (int, error) {
	vclock.MightPark(c.proto.Ck, "tcp.Conn.Write")
	total := 0
	for total < len(p) {
		c.Mu.Lock()
		for c.St == Established && len(c.sndBuf) >= BufSize {
			c.Cond.Wait()
		}
		if c.St != Established && c.St != CloseWait {
			err := c.Err
			c.Mu.Unlock()
			if err == nil {
				err = streams.ErrHungup
			}
			return total, err
		}
		n := min(len(p)-total, BufSize-len(c.sndBuf))
		if len(c.sndBuf)+n > cap(c.sndBuf) {
			if need := len(c.sndBuf) + n; need > len(c.sndArr) {
				c.sndArr = make([]byte, min(max(need, 2*len(c.sndArr)), BufSize))
			}
			c.sndBuf = c.sndArr[:copy(c.sndArr, c.sndBuf)]
		}
		c.sndBuf = append(c.sndBuf, p[total:total+n]...)
		total += n
		c.pumpLocked()
		c.due.Update()
		c.Mu.Unlock()
	}
	return total, nil
}

// pumpLocked transmits as much buffered data as the window allows.
func (c *Conn) pumpLocked() {
	mss := c.proto.Stack.MTUFor(c.Raddr) - HdrLen
	if mss <= 0 {
		mss = 512
	}
	wnd := uint32(c.sndWnd)
	if wnd == 0 {
		wnd = 1 // window probe
	}
	for {
		inFlight := c.sndNxt - c.sndUna
		if c.finSent {
			inFlight-- // FIN occupies a unit but no buffer byte
		}
		avail := uint32(len(c.sndBuf)) - inFlight
		if avail == 0 || inFlight >= wnd {
			// A pending close sends its FIN once the buffer has
			// fully drained onto the wire.
			if avail == 0 && c.finPending && !c.finSent {
				c.finPending = false
				c.sendFinLocked()
			}
			return
		}
		n := min(avail, uint32(mss), wnd-inFlight)
		seq := c.sndNxt
		c.RTT.Start(seq + n)
		if c.sndUna == c.sndNxt {
			c.oldestTx = c.proto.Ck.Now()
		}
		c.sndNxt += n
		c.sendSegLocked(0, seq, c.sndBuf[inFlight:inFlight+n])
	}
}

// segment processes one received segment.
func (c *Conn) segment(h header, data []byte) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.closed && c.St == Closed {
		return
	}
	defer c.due.Update()
	c.due.Heard()
	if h.flags&flagRST != 0 {
		c.Err = vfs.ErrConnRef
		c.dieLocked()
		return
	}
	switch c.St {
	case SynSent:
		if h.flags&flagSYN != 0 {
			c.rcvNxt = h.seq + 1
			if h.flags&flagACK != 0 && h.ack == c.ISS+1 {
				c.sndUna = h.ack
				c.sndWnd = h.win
				c.OpenedLocked()
				c.sendSegLocked(0, c.sndNxt, nil) // the final ack
			}
		}
		return
	case SynRcvd:
		if h.flags&flagACK != 0 && h.ack == c.ISS+1 {
			c.sndUna = h.ack
			c.sndWnd = h.win
			if !c.HandOffLocked() {
				// Listener gone or backlog full: refuse.
				c.Err = vfs.ErrConnRef
				c.sendSegLocked(flagRST, c.sndNxt, nil)
				c.dieLocked()
				return
			}
		}
		// fall through to data processing below
	}
	// ACK processing.
	if h.flags&flagACK != 0 && h.ack > c.sndUna && h.ack <= c.sndNxt {
		acked := h.ack - c.sndUna
		c.RTT.Ack(h.ack)
		// FIN consumes a sequence unit but no buffer byte.
		bufAcked := acked
		if c.finSent && h.ack > c.finSeq {
			bufAcked--
		}
		if bufAcked > uint32(len(c.sndBuf)) {
			bufAcked = uint32(len(c.sndBuf))
		}
		c.sndBuf = c.sndBuf[bufAcked:]
		c.sndUna = h.ack
		c.oldestTx = c.proto.Ck.Now()
		c.Cond.Broadcast()
		// State transitions on FIN acknowledgement.
		if c.finSent && h.ack > c.finSeq {
			switch c.St {
			case FinWait1:
				c.St = FinWait2
			case Closing:
				c.St, c.oldestTx = TimeWait, c.proto.Ck.Now()
			case LastAck:
				c.dieLocked()
				return
			}
		}
	}
	if h.flags&flagACK != 0 {
		c.sndWnd = h.win
		c.pumpLocked()
	}
	// A retransmitted handshake segment (SYN set) this late means the
	// peer never saw our final ack of it: re-ack, so a passive end
	// stranded half-open by a lost third-handshake ack can complete
	// its accept instead of retrying SYN|ACK until its death timer.
	if h.flags&flagSYN != 0 {
		c.sendSegLocked(0, c.sndNxt, nil)
	}
	// Data processing.
	if len(data) > 0 {
		c.dataLocked(h.seq, data)
	}
	// FIN processing (sequenced like a byte).
	if h.flags&flagFIN != 0 {
		finSeq := h.seq + uint32(len(data))
		c.finRcvd = true
		c.finAt = finSeq
		c.maybeFinLocked()
	}
}

// dataLocked accepts in-order data within the window it advertised,
// buffers out-of-order segments.
func (c *Conn) dataLocked(seq uint32, data []byte) {
	switch {
	case seq == c.rcvNxt:
		// The segment, then whatever buffered ones it makes in-order,
		// as far as the window reaches: the reader has not made room
		// for what lies beyond it, and the ack tells the sender where
		// the window ends. TCP does not preserve delimiters: blocks are
		// undelimited so reads merge across segment boundaries.
		for d, ok := data, true; ok; d, ok = c.ooo[c.rcvNxt] {
			delete(c.ooo, c.rcvNxt)
			d = d[:min(len(d), int(c.rcvWndLocked()))]
			if len(d) == 0 || !c.Rq.Produce(streams.NewBlock(d)) {
				break
			}
			c.rcvNxt += uint32(len(d))
		}
		c.sendSegLocked(0, c.sndNxt, nil) // immediate ack
		c.maybeFinLocked()
	case seq > c.rcvNxt && seq < c.rcvNxt+BufSize:
		if c.ooo == nil {
			c.ooo = make(map[uint32][]byte)
		}
		c.ooo[seq] = append([]byte(nil), data...)
		c.sendSegLocked(0, c.sndNxt, nil) // dup ack
	default:
		// Old or far-future data: re-ack.
		c.sendSegLocked(0, c.sndNxt, nil)
	}
}

// maybeFinLocked completes a received FIN once all data before it has
// been consumed.
func (c *Conn) maybeFinLocked() {
	if !c.finRcvd || c.rcvNxt != c.finAt {
		return
	}
	c.rcvNxt++ // the FIN itself
	c.sendSegLocked(0, c.sndNxt, nil)
	c.Rq.HangupUp()
	switch c.St {
	case Established:
		c.St = CloseWait
	case FinWait1:
		c.St = Closing
	case FinWait2:
		c.St, c.oldestTx = TimeWait, c.proto.Ck.Now()
	}
	c.Cond.Broadcast()
}

// dieLocked finalizes the connection and takes it out of the table,
// dropping Mu meanwhile: the table's lock comes first.
func (c *Conn) dieLocked() {
	if c.St == Closed && c.closed {
		return
	}
	c.HangupLocked()
	c.due.Update()
	c.Mu.Unlock()
	c.Remove()
	c.Mu.Lock()
}

// dueLocked is when the conversation next resends its SYN or what is
// unacknowledged (the first timeout is synRetry), or leaves Time_wait;
// zero while nothing is outstanding: an idle connection lives for ever.
func (c *Conn) dueLocked() time.Time {
	switch {
	case c.St == TimeWait:
		return c.oldestTx.Add(timeWaitDur)
	case c.St == Closed || c.sndUna == c.sndNxt:
		return time.Time{}
	}
	return c.oldestTx.Add(c.RTT.RTO(minRTO, maxRTO, synRetry))
}

// timeoutLocked does what dueLocked said was due: resend everything
// from sndUna (go-back-N) or our half of the handshake (SYN, which
// sendSegLocked makes SYN|ACK from the passive end), or leave Time_wait.
func (c *Conn) timeoutLocked() {
	c.oldestTx = c.proto.Ck.Now()
	switch c.St {
	case TimeWait:
		c.dieLocked()
		return
	case SynSent, SynRcvd:
		c.sendSegLocked(flagSYN, c.ISS, nil)
		return
	}
	mss := c.proto.Stack.MTUFor(c.Raddr) - HdrLen
	if mss <= 0 {
		mss = 512
	}
	c.RTT.Cancel()
	seq := c.sndUna
	inFlightData := c.sndNxt - c.sndUna
	if c.finSent {
		inFlightData--
	}
	remaining := c.sndBuf[:min(uint32(len(c.sndBuf)), inFlightData)]
	for len(remaining) > 0 {
		n := min(len(remaining), mss)
		c.proto.Retransmits.Add(1)
		c.Ring.Emit(obs.EvRetransmit, int64(seq), int64(n))
		c.sendSegLocked(0, seq, remaining[:n])
		seq += uint32(n)
		remaining = remaining[n:]
	}
	if c.finSent && c.sndUna <= c.finSeq {
		c.proto.Retransmits.Add(1)
		c.Ring.Emit(obs.EvRetransmit, int64(c.finSeq), 0)
		c.sendSegLocked(flagFIN, c.finSeq, nil)
	}
}

// Status implements xport.Conn, in the style of the paper's transcript:
// "tcp/2 1 Established connect".
func (c *Conn) Status() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return fmt.Sprintf("%s rtt %d ms srcv %d unacked %d",
		stateNames[c.St], c.RTT.SRTT.Milliseconds(),
		c.Rq.QueuedBytes(), c.sndNxt-c.sndUna)
}

// Close implements xport.Conn: orderly release with FIN.
func (c *Conn) Close() error {
	c.Mu.Lock()
	if c.closed {
		c.Mu.Unlock()
		return nil
	}
	c.closed = true
	switch c.St {
	case Established:
		c.St = FinWait1
		c.queueFinLocked()
	case CloseWait:
		c.St = LastAck
		c.queueFinLocked()
	case Listen:
		c.St = Closed
		c.Accepted.Close()
		c.Mu.Unlock()
		c.Remove()
		c.Rq.Close()
		return nil
	case SynSent, SynRcvd:
		c.sendSegLocked(flagRST, c.sndNxt, nil)
		c.dieLocked()
	default:
		c.dieLocked()
	}
	// Don't linger forever waiting for the FIN exchange.
	c.due.End(c.proto.Ck.Now().Add(2 * time.Second))
	c.Mu.Unlock()
	return nil
}

func (c *Conn) sendFinLocked() {
	c.finSent = true
	c.finSeq = c.sndNxt
	c.sndNxt++
	c.oldestTx = c.proto.Ck.Now()
	c.sendSegLocked(flagFIN, c.finSeq, nil)
}

// queueFinLocked sends the FIN immediately when the send buffer has
// drained, or defers it to the pump otherwise.
func (c *Conn) queueFinLocked() {
	inFlight := c.sndNxt - c.sndUna
	if uint32(len(c.sndBuf)) == inFlight {
		c.sendFinLocked()
	} else {
		c.finPending = true
	}
}
