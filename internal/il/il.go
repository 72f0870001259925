// Package il implements the IL protocol of §3: "a lightweight protocol
// designed to be encapsulated by IP ... a connection-based protocol
// providing reliable transmission of sequenced messages between
// machines."
//
// Faithful properties:
//
//   - Reliable datagram service with sequenced delivery: message
//     boundaries written by the sender are preserved for the reader,
//     which is what lets 9P ride IL with no marshaling layer.
//   - Runs over IP (protocol number 40).
//   - No flow control beyond a small outstanding-message window
//     (§3: "A small outstanding message window prevents too many
//     incoming messages from being buffered; messages outside the
//     window are discarded and must be retransmitted"). The receiver's
//     stream closes the window too: a message it has no room for is
//     refused at its first packet, unacknowledged and counted
//     out-of-window, and the sender's query recovers it once the
//     reader drains. The line that delivers it serves every
//     conversation on the wire and never waits for one reader.
//   - Connection setup is a two-way handshake generating initial
//     sequence numbers at each end; data messages increment them so
//     the receiver can resequence out-of-order messages.
//   - No blind retransmission: on timeout the sender transmits a
//     query carrying its current sequence numbers and a tag; the peer
//     answers with a state message that echoes the tag, and the
//     missing messages are retransmitted — those sent before that
//     query that the answer does not acknowledge, one at a time as
//     each ack uncovers the next, and nothing the peer already has.
//   - Adaptive timeouts: a round-trip timer calculates acknowledge and
//     retransmission times in terms of the network speed, so the
//     protocol performs well on both local Ethernets and slow paths.
//
// One substitution: real IL relied on IP fragmentation for messages
// larger than the medium MTU. This stack does not fragment IP, so IL
// itself splits large messages into MTU-sized packets and marks the
// final packet with an end-of-message bit in the spec byte; the
// receiver reassembles. Delimiter semantics are identical. The paper's
// IL never saw a fragment, so its window of 20 held twenty 8 KiB 9P
// replies; the window here counts the same thing, whole messages.
// Sequence numbers and acknowledgements stay per packet.
package il

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

// HdrLen is the IL header: sum[2] len[2] type[1] spec[1] src[2] dst[2]
// id[4] ack[4].
const HdrLen = 18

// Message types.
const (
	msgSync = iota
	msgData
	msgAck
	msgQuery
	msgState
	msgClose
)

var be = binary.BigEndian

// specEOM marks the final packet of a message (delimiter).
const specEOM = 0x01

// Window is the small outstanding-message window: whole messages, as
// in §3, however many packets each was cut into.
const Window = 20

// maxMsgPkts bounds one message the way the paper's IL was bounded, by
// the largest IP datagram: 64 KiB of Ethernet packets.
const maxMsgPkts = 45

// Connection states: the four every xport conversation passes through,
// under IL's names for them, then IL's own.
const (
	Closed      = xport.Closed
	Listening   = xport.Listening
	Syncer      = xport.Connecting
	Established = xport.Established
)
const (
	Syncee = xport.NStates + iota
	Closing
)

var stateNames = []string{"Closed", "Listening", "Syncer", "Established", "Syncee", "Closing"}

// Timer constants.
const (
	minRTO = 10 * time.Millisecond
	maxRTO = 2 * time.Second
	// deathTime is how long a connection retries before giving up.
	deathTime = 30 * time.Second
	// synRetry is the sync retransmit interval before RTT is known.
	synRetry = 100 * time.Millisecond
	// ephemBase is where locally chosen ports start.
	ephemBase = 2000
)

// Proto is a machine's IL protocol device. The embedded table holds
// the conversations, listeners and ports, the clock and the RTT
// histogram; what is declared here is IL's own.
type Proto struct {
	xport.Table

	// The switches of §3's three ablations, which only this package's
	// tests set: blind resends the whole window on a timeout instead of
	// asking, a nonzero fixedRTO replaces the adaptive timeout, and
	// window stands in for Window (New's value).
	blind    bool
	fixedRTO time.Duration
	window   uint32

	// Counters for the ablation experiments and status files.
	Retransmits  atomic.Int64
	QueriesSent  atomic.Int64
	QueriesRcvd  atomic.Int64
	DupsReceived atomic.Int64
	OutOfWindow  atomic.Int64
	MsgsSent     atomic.Int64
	MsgsRcvd     atomic.Int64
	ChecksumErrs atomic.Int64
}

var _ xport.Proto = (*Proto)(nil)

// New creates the IL device on a stack and registers its demux.
func New(stack *ip.Stack) *Proto {
	p := &Proto{window: Window}
	p.Init(stack, ephemBase, stateNames, p.spawn)
	p.Stats.
		AddAtomic("msgs-sent", &p.MsgsSent).
		AddAtomic("msgs-rcvd", &p.MsgsRcvd).
		AddAtomic("retransmits", &p.Retransmits).
		AddAtomic("queries-sent", &p.QueriesSent).
		AddAtomic("queries-rcvd", &p.QueriesRcvd).
		AddAtomic("dups-rcvd", &p.DupsReceived).
		AddAtomic("out-of-window", &p.OutOfWindow).
		AddAtomic("checksum-errs", &p.ChecksumErrs).
		AddHist("rtt", &p.RTTHist)
	stack.Register(ip.ProtoIL, p.recv)
	return p
}

// send hands one packet to IP on the caller's goroutine, which may hold
// a conversation lock: the IP send path never parks.
func (p *Proto) send(src, dst ip.Addr, pkt *block.Block) {
	p.MsgsSent.Add(1)
	p.Stack.SendBlock(ip.ProtoIL, src, dst, pkt)
}

// Name implements xport.Proto.
func (p *Proto) Name() string { return "il" }

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
	o.HangupLocked()
}

// header is the unmarshaled IL header.
type header struct {
	typ  byte
	spec byte
	src  uint16
	dst  uint16
	id   uint32
	ack  uint32
}

// fillHeader writes the IL header and whole-packet checksum over p,
// whose tail beyond HdrLen must already hold the payload.
func fillHeader(p []byte, h header) {
	// The checksum field must be zero while summing: recycled pool
	// buffers arrive with stale contents, unlike a fresh make.
	be.PutUint16(p[0:], 0)
	be.PutUint16(p[2:], uint16(len(p)))
	p[4], p[5] = h.typ, h.spec
	be.PutUint16(p[6:], h.src)
	be.PutUint16(p[8:], h.dst)
	be.PutUint32(p[10:], h.id)
	be.PutUint32(p[14:], h.ack)
	be.PutUint16(p[0:], ip.Checksum(p))
}

// marshalBlock builds the packet in a pooled block with headroom for
// the IP and Ethernet headers below, so no lower layer copies or
// reallocates.
func marshalBlock(h header, data []byte) *block.Block {
	b := block.Alloc(HdrLen+len(data), block.DefaultHeadroom)
	p := b.Bytes()
	copy(p[HdrLen:], data)
	fillHeader(p, h)
	return b
}

func unmarshal(p []byte) (header, []byte, bool) {
	var h header
	if len(p) < HdrLen {
		return h, nil, false
	}
	if ip.Checksum(p) != 0 {
		return h, nil, false
	}
	n := int(be.Uint16(p[2:]))
	if n < HdrLen || n > len(p) {
		return h, nil, false
	}
	h.typ, h.spec = p[4], p[5]
	h.src, h.dst = be.Uint16(p[6:]), be.Uint16(p[8:])
	h.id, h.ack = be.Uint32(p[10:]), be.Uint32(p[14:])
	return h, p[HdrLen:n], true
}

// recv takes an incoming IL packet to its conversation.
func (p *Proto) recv(src, dst ip.Addr, payload []byte) {
	h, data, ok := unmarshal(payload)
	if !ok {
		// The whole-packet checksum failed (or the packet was
		// malformed): corruption that slipped past every lower-layer
		// CRC ends here, detected, never delivered (§3).
		p.ChecksumErrs.Add(1)
		return
	}
	p.MsgsRcvd.Add(1)
	cv := p.Demux(src, h.src, h.dst, h.typ == msgSync, h.id)
	if cv == nil {
		// A close for a vanished connection needs no answer; data
		// gets a close so the peer learns quickly.
		if h.typ != msgClose {
			p.send(dst, src, marshalBlock(header{typ: msgClose, src: h.dst, dst: h.src}, nil))
		}
		return
	}
	cv.Self.(*Conn).input(h, data)
}

// spawn is the table's hook: the passive (Syncee) end for a sync that
// reached listener l.
func (p *Proto) spawn(l *xport.Conv, raddr ip.Addr, rport, lport uint16, peer uint32) *xport.Conv {
	c := p.newConn()
	c.Passive(l, raddr, rport, lport)
	c.St = Syncee
	c.sndNext = c.ISS + 1
	c.sndUna = c.ISS + 1
	c.rcvNext = peer + 1
	return &c.Conv
}

// query is one query the sender asked; live until a resend retires it.
type query struct {
	tag  byte
	live bool
	next uint32 // sndNext when it went out
}

// packet is a data packet a conversation holds: one it sent, until it
// is acknowledged, or one received ahead of those before it.
type packet struct {
	id   uint32
	spec byte
	data []byte
}

// Conn is an IL conversation. The embedded scaffold holds the lock,
// state, endpoints, initial sequence number (the id of our sync), the
// adaptive round-trip timer (§3) and the read queue; what is declared
// here is IL's sequencing.
type Conn struct {
	xport.Conv
	proto *Proto

	due vclock.Deadline // when dueLocked comes round, death, or the close's end

	// Sender state.
	sndNext uint32 // next id to assign
	sndUna  uint32 // lowest unacknowledged id
	unacked []packet
	sndMsgs uint32 // whole messages (EOM packets) in unacked
	// waitFrom is when the retransmission timer started waiting: when
	// the head of unacked was sent into an empty window or an ack made it
	// the head, or when our sync, query or close last went out.
	waitFrom time.Time
	// Recovery (§3). A query travels the same queue and wire as the
	// data sent before it, so the state message that answers it comes
	// from a peer that has seen every earlier packet that was not lost.
	// A query's spec byte is its tag, and its state echoes it. asked
	// holds the last queries by tag mod 8, with sndNext as each went
	// out; a state for one of them moves recover to it, and an
	// unacknowledged packet below recover is proven lost. A state whose
	// tag is not there proves nothing, and a resend retires them all.
	asked   [8]query
	tag     byte // the last query's
	recover uint32

	// Receiver state.
	rcvNext    uint32            // next expected id
	ooo        map[uint32]packet // out-of-order within window
	reassembly []byte            // partial message being assembled

	closeSeen bool   // peer close received
	closeID   uint32 // its sequence position

	closed bool
}

var _ xport.Conn = (*Conn)(nil)

// Connect implements xport.Conn: the active open (Syncer).
func (c *Conn) Connect(addr string) error {
	if err := c.BeginConnect(addr); err != nil {
		return err
	}
	c.sndNext = c.ISS + 1
	c.sndUna = c.ISS + 1
	c.sendSyncLocked()
	c.due.Update()
	c.Mu.Unlock()
	return c.WaitOpen()
}

// sendSyncLocked (re)transmits the handshake message: the Syncer's
// sync, or the Syncee's answer to it.
func (c *Conn) sendSyncLocked() {
	c.waitFrom = c.proto.Ck.Now()
	c.sendLocked(msgSync, 0, c.ISS, nil)
}

// sendLocked transmits a control or data packet with current ack state.
func (c *Conn) sendLocked(typ, spec byte, id uint32, data []byte) {
	h := header{typ: typ, spec: spec, src: c.Lport, dst: c.Rport,
		id: id, ack: c.rcvNext - 1}
	// One copy of the payload into a pooled block with headroom; every
	// layer below prepends into it in place.
	c.proto.send(c.Laddr, c.Raddr, marshalBlock(h, data))
}

// Write implements xport.Conn: one reliable sequenced message per
// write, fragmented to the path MTU with the final fragment delimited.
func (c *Conn) Write(p []byte) (int, error) {
	vclock.MightPark(c.proto.Ck, "il.Conn.Write")
	c.Mu.Lock()
	if c.St != Established && c.St != Syncee {
		err := c.Err
		c.Mu.Unlock()
		if err == nil {
			err = xport.ErrNotConnected
		}
		return 0, err
	}
	mtu := c.proto.Stack.MTUFor(c.Raddr) - HdrLen
	if mtu <= 0 {
		mtu = 512
	}
	total := 0
	for {
		n := min(len(p)-total, mtu)
		// The small outstanding-message window (§3): block while
		// full rather than buffering more. Full is Window whole
		// messages, or as many packets as Window of the largest could
		// be cut into.
		w := c.proto.window
		for (c.sndMsgs >= w || c.sndNext-c.sndUna >= w*maxMsgPkts) && c.St != Closed && c.St != Closing {
			c.Cond.Wait()
		}
		if c.St == Closed || c.St == Closing {
			err := c.Err
			c.Mu.Unlock()
			if err == nil {
				err = streams.ErrHungup
			}
			return total, err
		}
		var spec byte
		if total+n == len(p) {
			spec = specEOM
		}
		id := c.sndNext
		c.sndNext++
		// The retransmit copy lives in a pooled buffer, released
		// when the ack drops it from the window.
		data := block.GetBytes(n)
		copy(data, p[total:total+n])
		if len(c.unacked) == 0 {
			c.waitFrom = c.proto.Ck.Now()
		}
		c.unacked = append(c.unacked, packet{id, spec, data})
		if spec&specEOM != 0 {
			c.sndMsgs++
		}
		c.RTT.Start(id)
		c.sendLocked(msgData, spec, id, data)
		c.due.Update()
		c.Ring.Emit(obs.EvSend, int64(id), int64(n))
		total += n
		if total == len(p) {
			c.Mu.Unlock()
			return total, nil
		}
	}
}

// input processes one received packet, Closing included: what a
// conversation wrote before Close is recovered like any other data.
func (c *Conn) input(h header, data []byte) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.closed && c.St == Closed {
		return
	}
	defer c.due.Update()
	c.due.Heard()
	switch h.typ {
	case msgSync:
		switch c.St {
		case Syncer:
			if h.ack == c.ISS {
				c.rcvNext = h.id + 1
				c.OpenedLocked()
				c.sendLocked(msgAck, 0, c.sndNext-1, nil)
			}
		case Syncee:
			// Duplicate sync: re-answer with our sync (the peer
			// is still in Syncer and needs it).
			c.sendSyncLocked()
		case Established:
			// The peer missed our final ack: a plain ack
			// settles it without risking a sync ping-pong.
			c.sendLocked(msgAck, 0, c.sndNext-1, nil)
		}
	case msgAck:
		c.ackLocked(h.ack)
		if c.St == Syncee && h.ack >= c.ISS {
			c.establishSynceeLocked()
		}
	case msgData:
		if c.St == Syncee {
			c.establishSynceeLocked()
		}
		c.dataLocked(h, data)
	case msgQuery:
		c.proto.QueriesRcvd.Add(1)
		// What a query or a state acknowledges waited out a timeout: it
		// is no round-trip sample (Karn's rule, as for a retransmission).
		c.RTT.Cancel()
		c.ackLocked(h.ack)
		c.sendLocked(msgState, h.spec, c.sndNext-1, nil)
	case msgState:
		// A query is answered: what it proves lost is resent ("the
		// receiver responds to a query by retransmitting missing
		// messages"), the head here or on the ack that uncovers it, the
		// holes behind it as the acks of the resends uncover them. A
		// state whose ack is behind sndUna is stale and resends nothing.
		if q := c.asked[h.spec%8]; q.live && q.tag == h.spec {
			c.recover = q.next
			if h.ack+1 == c.sndUna {
				c.resendLostHeadLocked()
			}
		}
		c.RTT.Cancel()
		c.ackLocked(h.ack)
	case msgClose:
		// Closes are sequenced like data: the hangup is delivered
		// only after every earlier message has been consumed, so a
		// close can never cause queued data to be lost.
		c.ackLocked(h.ack)
		c.closeSeen = true
		c.closeID = h.id
		c.maybeCloseLocked()
	}
}

// maybeCloseLocked completes a peer-initiated close once all data
// preceding it has arrived.
func (c *Conn) maybeCloseLocked() {
	if !c.closeSeen {
		return
	}
	if c.St == Established || c.St == Syncee {
		// Wait for in-sequence delivery of everything before the
		// close point.
		if c.rcvNext < c.closeID {
			return
		}
	}
	if c.St != Closing && c.St != Closed {
		c.sendLocked(msgClose, 0, c.sndNext-1, nil)
	}
	c.HangupLocked()
}

func (c *Conn) establishSynceeLocked() {
	if !c.HandOffLocked() {
		// Listener gone or accept queue overflow: refuse.
		c.sendLocked(msgClose, 0, c.sndNext-1, nil)
		c.St = Closed
	}
}

// ackLocked processes a cumulative acknowledgement.
func (c *Conn) ackLocked(ack uint32) {
	if ack < c.sndUna {
		return
	}
	c.Ring.Emit(obs.EvAck, int64(ack), 0)
	// Round-trip timing on the timed message (§3 adaptive timeouts).
	c.RTT.Ack(ack)
	// Release the acked retransmit copies and compact the window in
	// place — no per-ack reallocation.
	i := 0
	for ; i < len(c.unacked) && c.unacked[i].id <= ack; i++ {
		if c.unacked[i].spec&specEOM != 0 {
			c.sndMsgs--
		}
		block.PutBytes(c.unacked[i].data)
	}
	n := copy(c.unacked, c.unacked[i:])
	clear(c.unacked[n:])
	c.unacked = c.unacked[:n]
	c.sndUna = ack + 1
	if c.sndUna > c.sndNext {
		c.sndNext = c.sndUna
	}
	// Progress restarts the timer (RFC 6298 §5.3): the new head has been
	// waiting for the wire, not for its peer.
	c.waitFrom = c.proto.Ck.Now()
	c.resendLostHeadLocked()
	c.Cond.Broadcast()
}

// resendLostHeadLocked resends the oldest unacknowledged packet if the
// last answered query proved it lost: it was sent before that query and
// the peer still lacks it. One round trip per hole, not one timeout.
func (c *Conn) resendLostHeadLocked() {
	if len(c.unacked) > 0 && c.unacked[0].id < c.recover {
		c.resendLocked(&c.unacked[0])
	}
}

// resendLocked resends m. The states of queries asked before it would
// prove it lost again, so it retires them.
func (c *Conn) resendLocked(m *packet) {
	clear(c.asked[:])
	c.waitFrom = c.proto.Ck.Now()
	c.proto.Retransmits.Add(1)
	c.Ring.Emit(obs.EvRetransmit, int64(m.id), 0)
	c.sendLocked(msgData, m.spec, m.id, m.data)
	// Retransmitted messages cannot be timed (Karn's rule).
	c.RTT.Cancel()
}

// dataLocked handles a data packet: in-order delivery, out-of-order
// buffering within the window, duplicate re-ack.
func (c *Conn) dataLocked(h header, data []byte) {
	c.ackLocked(h.ack)
	switch {
	case h.id == c.rcvNext:
		if !c.acceptLocked(h.spec, data) {
			c.refuseLocked(h.id)
			return
		}
		c.Ring.Emit(obs.EvRecv, int64(h.id), int64(len(data)))
		// Drain any buffered successors the stream takes.
		for {
			m, ok := c.ooo[c.rcvNext]
			if !ok || !c.acceptLocked(m.spec, m.data) {
				break
			}
			delete(c.ooo, m.id)
		}
		c.sendLocked(msgAck, 0, c.sndNext-1, nil)
		c.maybeCloseLocked()
	case h.id < c.rcvNext:
		// Duplicate: re-acknowledge so the sender advances.
		c.proto.DupsReceived.Add(1)
		c.Ring.Emit(obs.EvDup, int64(h.id), 0)
		c.sendLocked(msgAck, 0, c.sndNext-1, nil)
	case h.id < c.rcvNext+c.proto.window*maxMsgPkts:
		// Whatever a conforming sender may have in flight.
		if c.ooo == nil {
			c.ooo = make(map[uint32]packet)
		}
		if _, dup := c.ooo[h.id]; dup {
			c.proto.DupsReceived.Add(1)
			c.Ring.Emit(obs.EvDup, int64(h.id), 0)
		}
		c.ooo[h.id] = packet{h.id, h.spec, append([]byte(nil), data...)}
	default:
		c.refuseLocked(h.id)
	}
}

// refuseLocked discards a data packet outside the window, which ends
// where a conforming sender's does or where the reader's stream is
// full: "messages outside the window are discarded and must be
// retransmitted" (§3).
func (c *Conn) refuseLocked(id uint32) {
	c.proto.OutOfWindow.Add(1)
	c.Ring.Emit(obs.EvOutOfOrder, int64(id), 0)
}

// acceptLocked consumes one in-order packet, reassembling fragmented
// messages and delivering complete ones (delimited) upstream. It
// reports false, consuming nothing, for the first packet of a message
// the stream has no room for.
func (c *Conn) acceptLocked(spec byte, data []byte) bool {
	if c.closed {
		c.rcvNext++
		return true // acknowledged, but nobody reads a closed conversation
	}
	if spec&specEOM == 0 {
		// A fragment, acknowledged as it arrives, so the message is
		// admitted whole at its first. The scratch is kept for the next
		// message: it grows to the message size once per conversation
		// instead of once per message.
		if len(c.reassembly) == 0 && c.Rq.Full() {
			return false
		}
		c.reassembly = append(c.reassembly, data...)
		c.rcvNext++
		return true
	}
	if len(c.reassembly) > 0 {
		c.reassembly = append(c.reassembly, data...)
		data, c.reassembly = c.reassembly, c.reassembly[:0]
	}
	// One copy of the borrowed receive bytes into a pooled block,
	// delivered without re-materializing. Only a message in one packet
	// can be refused here: a longer one was admitted at its first
	// packet, and nothing but this conversation's input, under Mu,
	// queues on the stream.
	b := block.Copy(data, 0)
	b.Delim = true
	if !c.Rq.Produce(b) {
		return false
	}
	c.rcvNext++
	return true
}

// rtoLocked returns the current retransmission timeout.
func (c *Conn) rtoLocked() time.Duration {
	if c.proto.fixedRTO > 0 {
		return c.proto.fixedRTO
	}
	return c.RTT.RTO(minRTO, maxRTO, synRetry)
}

// dueLocked is when the conversation next resends its sync, a query
// about (or, blind, a copy of) what is unacknowledged, or its close;
// zero while nothing is outstanding. The first timeout is synRetry.
func (c *Conn) dueLocked() time.Time {
	if c.St == Closed || c.St == Listening || c.St == Established && len(c.unacked) == 0 {
		return time.Time{}
	}
	return c.waitFrom.Add(c.rtoLocked())
}

// timeoutLocked resends what dueLocked said was due.
func (c *Conn) timeoutLocked() {
	switch {
	case c.St == Syncer || c.St == Syncee:
		c.sendSyncLocked()
	case len(c.unacked) == 0:
		// Closing, all acknowledged: the close again, until the peer's.
		c.waitFrom = c.proto.Ck.Now()
		c.sendLocked(msgClose, 0, c.sndNext-1, nil)
	case c.proto.blind:
		for i := range c.unacked {
			c.resendLocked(&c.unacked[i])
		}
	default:
		// §3: send a query instead of retransmitting blindly. The query
		// itself may be lost; if so this asks again after another RTO,
		// and the state for each proves lost only what was sent before
		// it.
		c.tag++
		c.asked[c.tag%8] = query{tag: c.tag, live: true, next: c.sndNext}
		c.waitFrom = c.proto.Ck.Now()
		c.proto.QueriesSent.Add(1)
		c.Ring.Emit(obs.EvQuery, 0, 0)
		c.sendLocked(msgQuery, c.tag, c.sndNext-1, nil)
	}
}

// Status implements xport.Conn: the ASCII state line, with the timer
// and window detail of the kernel's status files.
func (c *Conn) Status() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return fmt.Sprintf("%s rtt %d ms unacked %d window %d",
		stateNames[c.St], c.RTT.SRTT.Milliseconds(), len(c.unacked), c.proto.window)
}

// Close implements xport.Conn.
func (c *Conn) Close() error {
	c.Mu.Lock()
	if c.closed {
		c.Mu.Unlock()
		return nil
	}
	c.closed = true
	switch c.St {
	case Established, Syncee, Syncer:
		c.St = Closing
		// The close consumes a sequence number so the peer can
		// order it after all in-flight data.
		id := c.sndNext
		c.sndNext++
		if len(c.unacked) == 0 {
			c.waitFrom = c.proto.Ck.Now()
		}
		c.sendLocked(msgClose, 0, id, nil)
	case Listening:
		c.St = Closed
		c.Accepted.Close()
	default:
		c.St = Closed
	}
	st := c.St
	c.Cond.Broadcast()
	// Give the close exchange a moment, then end. Until then the
	// conversation stays in the demux table, recovering what it wrote,
	// and late packets land here quietly instead of provoking stray
	// "unknown conversation" closes.
	c.due.End(c.proto.Ck.Now().Add(200 * time.Millisecond))
	c.Mu.Unlock()
	if st == Closed {
		c.Remove()
	}
	c.Rq.HangupUp()
	return nil
}
