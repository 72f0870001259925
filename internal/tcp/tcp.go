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
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// HdrLen is our simplified TCP header: src[2] dst[2] seq[4] ack[4]
// flags[1] pad[1] win[2] sum[2].
const HdrLen = 18

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
	tickInterval = 5 * time.Millisecond
	minRTO       = 20 * time.Millisecond
	maxRTO       = 2 * time.Second
	synRetry     = 200 * time.Millisecond
	deathTime    = 30 * time.Second
	timeWaitDur  = 200 * time.Millisecond
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
	return c
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
	p[0] = byte(h.src >> 8)
	p[1] = byte(h.src)
	p[2] = byte(h.dst >> 8)
	p[3] = byte(h.dst)
	p[4] = byte(h.seq >> 24)
	p[5] = byte(h.seq >> 16)
	p[6] = byte(h.seq >> 8)
	p[7] = byte(h.seq)
	p[8] = byte(h.ack >> 24)
	p[9] = byte(h.ack >> 16)
	p[10] = byte(h.ack >> 8)
	p[11] = byte(h.ack)
	p[12] = h.flags
	p[13] = 0
	p[14] = byte(h.win >> 8)
	p[15] = byte(h.win)
	p[16], p[17] = 0, 0
	ck := ip.Checksum(p)
	p[16] = byte(ck >> 8)
	p[17] = byte(ck)
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
	h.src = uint16(p[0])<<8 | uint16(p[1])
	h.dst = uint16(p[2])<<8 | uint16(p[3])
	h.seq = uint32(p[4])<<24 | uint32(p[5])<<16 | uint32(p[6])<<8 | uint32(p[7])
	h.ack = uint32(p[8])<<24 | uint32(p[9])<<16 | uint32(p[10])<<8 | uint32(p[11])
	h.flags = p[12]
	h.win = uint16(p[14])<<8 | uint16(p[15])
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
	p.Ck.Go(c.timer)
	c.sendSegLocked(flagSYN|flagACK, c.ISS, nil)
	return &c.Conv
}

// Conn is a TCP conversation. The embedded scaffold holds the lock,
// state, endpoints, initial send sequence number, round-trip timer and
// read queue.
type Conn struct {
	xport.Conv
	proto *Proto

	// Send side: sndBuf holds bytes [sndUna, sndUna+len).
	sndUna     uint32
	sndNxt     uint32
	sndBuf     []byte
	sndWnd     uint16 // peer's advertised window
	finSent    bool
	finPending bool // close requested, data still draining
	finSeq     uint32
	oldestTx   time.Time

	// Receive side.
	rcvNxt  uint32
	ooo     map[uint32][]byte
	finRcvd bool
	finAt   uint32

	lastProgress time.Time

	closed bool
}

var _ xport.Conn = (*Conn)(nil)

// Connect implements xport.Conn: the active open.
func (c *Conn) Connect(addr string) error {
	if err := c.BeginConnect(addr); err != nil {
		return err
	}
	p := c.proto
	c.sndUna, c.sndNxt = c.ISS, c.ISS+1
	c.lastProgress = p.Ck.Now()
	c.sendSegLocked(flagSYN, c.ISS, nil)
	c.Mu.Unlock()

	p.Ck.Go(c.timer)
	return c.WaitOpen()
}

// rcvWndLocked is the window we advertise.
func (c *Conn) rcvWndLocked() uint16 {
	q := c.Rq.QueuedBytes()
	if q >= BufSize {
		return 0
	}
	w := BufSize - q
	if w > 0xffff { // the 16-bit window field caps what we can say
		w = 0xffff
	}
	return uint16(w)
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
		n := len(p) - total
		if room := BufSize - len(c.sndBuf); n > room {
			n = room
		}
		c.sndBuf = append(c.sndBuf, p[total:total+n]...)
		total += n
		c.pumpLocked()
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
	if wnd > BufSize {
		wnd = BufSize
	}
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
		n := avail
		if n > uint32(mss) {
			n = uint32(mss)
		}
		if inFlight+n > wnd {
			n = wnd - inFlight
		}
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
	c.lastProgress = c.proto.Ck.Now()
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
				c.enterTimeWaitLocked()
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

// dataLocked accepts in-order data, buffers out-of-order segments.
func (c *Conn) dataLocked(seq uint32, data []byte) {
	switch {
	case seq == c.rcvNxt:
		// The segment, then whatever buffered ones it makes in-order.
		// TCP does not preserve delimiters: blocks are undelimited so
		// reads merge across segment boundaries.
		for d, ok := data, true; ok; d, ok = c.ooo[c.rcvNxt] {
			delete(c.ooo, c.rcvNxt)
			c.rcvNxt += uint32(len(d))
			c.Rq.DeviceUp(streams.NewBlock(d)) //netvet:ignore lock-across-send cannot park: Rq has no modules and its limit exceeds the window (see xport.Conv.Rq)
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
	c.Rq.HangupUp() //netvet:ignore lock-across-send cannot park: Rq has no modules and a hangup is never flow-controlled (see xport.Conv.Rq)
	switch c.St {
	case Established:
		c.St = CloseWait
	case FinWait1:
		c.St = Closing
	case FinWait2:
		c.enterTimeWaitLocked()
	}
	c.Cond.Broadcast()
}

func (c *Conn) enterTimeWaitLocked() {
	c.St = TimeWait
	c.Cond.Broadcast()
	c.proto.Ck.AfterFunc(timeWaitDur, func() {
		c.Mu.Lock()
		c.dieLocked()
		c.Mu.Unlock()
	})
}

// dieLocked finalizes the connection.
func (c *Conn) dieLocked() {
	if c.St == Closed && c.closed {
		return
	}
	c.HangupLocked()
	// The table's lock comes before c.Mu, which the caller holds.
	c.proto.Ck.Go(c.Remove)
}

// timer is the connection's helper process: SYN retries, go-back-N
// retransmission, FIN retries, death timer.
func (c *Conn) timer() {
	ck := c.proto.Ck
	for {
		ck.Sleep(tickInterval)
		c.Mu.Lock()
		if c.St == Closed {
			c.Mu.Unlock()
			return
		}
		now := ck.Now()
		if now.Sub(c.lastProgress) > deathTime {
			c.Err = vfs.ErrTimedOut
			c.dieLocked()
			c.Mu.Unlock()
			return
		}
		switch c.St {
		case SynSent:
			c.sendSegLocked(flagSYN, c.ISS, nil)
			c.Mu.Unlock()
			ck.Sleep(synRetry)
			continue
		case SynRcvd:
			c.sendSegLocked(flagSYN|flagACK, c.ISS, nil)
			c.Mu.Unlock()
			ck.Sleep(synRetry)
			continue
		}
		// Retransmission: go-back-N from sndUna.
		if c.sndUna != c.sndNxt && now.Sub(c.oldestTx) > c.RTT.RTO(minRTO, maxRTO, synRetry) {
			c.retransmitLocked()
			c.oldestTx = now
		}
		c.Mu.Unlock()
	}
}

// retransmitLocked resends everything from sndUna (go-back-N).
func (c *Conn) retransmitLocked() {
	mss := c.proto.Stack.MTUFor(c.Raddr) - HdrLen
	if mss <= 0 {
		mss = 512
	}
	c.RTT.Cancel()
	seq := c.sndUna
	remaining := c.sndBuf
	inFlightData := c.sndNxt - c.sndUna
	if c.finSent {
		inFlightData--
	}
	if uint32(len(remaining)) > inFlightData {
		remaining = remaining[:inFlightData]
	}
	for len(remaining) > 0 {
		n := len(remaining)
		if n > mss {
			n = mss
		}
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
	c.Mu.Unlock()
	// Don't linger forever waiting for the FIN exchange.
	c.proto.Ck.AfterFunc(2*time.Second, func() {
		c.Mu.Lock()
		c.dieLocked()
		c.Mu.Unlock()
		c.Rq.Close()
	})
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
