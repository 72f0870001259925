// Package ether simulates an Ethernet (§2.2): a broadcast segment
// connecting interfaces, each served by a LANCE-style driver that
// demultiplexes received packets among conversations by packet type,
// supports the special type -1 and promiscuous mode, and presents the
// two-level file tree of the paper's Figure 1:
//
//	ether/clone
//	ether/1/ctl  ether/1/data  ether/1/stats  ether/1/type
//	...
//
// The medium is characterized by a Profile (latency, bandwidth, MTU,
// loss) so the performance experiments can calibrate it to the paper's
// 10 Mb/s hardware; with a zero Profile frames are delivered
// synchronously and tests run at memory speed.
package ether

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/devtree"
	"repro/internal/medium"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// HdrLen is the Ethernet frame header: dst[6] src[6] type[2].
const HdrLen = 14

// fcsLen is the frame check sequence the transmitting hardware
// appends: a CRC32, as on the real wire. Receiving interfaces verify
// and strip it, dropping damaged frames and counting crc errs —
// which is why bit corruption on an Ethernet shows up to protocols as
// loss, and end-to-end checksums (IL, TCP) exist for corruption
// introduced above the hardware CRC.
const fcsLen = 4

// MaxConns bounds the conversations per interface, like the fixed
// conversation tables of the kernel driver.
const MaxConns = 32

// Well-known packet types.
const (
	TypeIP  = 0x0800
	TypeARP = 0x0806
	// TypeAll is the special packet type -1 selecting all packets.
	TypeAll = -1
)

// Addr is a 48-bit Ethernet address.
type Addr [6]byte

// String formats the address as the ndb ether= attribute does.
func (a Addr) String() string {
	return fmt.Sprintf("%02x%02x%02x%02x%02x%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Profile characterizes the segment's medium. It is the point-to-point
// media's profile, read for a broadcast domain: MTU is the largest
// payload, not counting the frame header, and 0 means 1500; frames the
// impairment model corrupts fail the FCS at every receiving interface,
// so corruption surfaces as loss plus a crc errs count — as on real
// hardware.
type Profile = medium.Profile

// mtu is the segment's MTU: the profile's, or the Ethernet's 1500.
func mtu(p Profile) int {
	if p.MTU <= 0 {
		return 1500
	}
	return p.MTU
}

// Segment is a broadcast domain: every frame transmitted by one
// interface is delivered to all others (medium effects permitting).
type Segment struct {
	name    string
	profile Profile
	ck      vclock.Clock
	im      *medium.Impairer // nil on an unimpaired, lossless segment
	ideal   bool             // ideal medium: no pacing, no impairment, FCS elided

	mu     sync.Mutex
	ifaces []*Interface
	closed bool

	// txq is the wire's queue. It is unbounded so that transmitting
	// never parks: IL and TCP send under their conversation locks. What
	// bounds it is what the senders above may hold in flight — IL's
	// window, TCP's 64 KiB buffer, ARP's hold of 16.
	txq *vclock.Mailbox[txFrame]
}

type txFrame struct {
	from  *Interface
	frame []byte
}

// NewSegment creates a segment with the given medium profile.
func NewSegment(name string, p Profile) *Segment {
	ck := vclock.Or(p.Clock)
	seg := &Segment{
		name:    name,
		profile: p,
		ck:      ck,
		txq:     vclock.NewMailbox[txFrame](ck, 0),
	}
	if p.Impair.Armed(p.Loss) {
		seg.im = medium.NewImpairer(p.Seed+1, p.Loss, p.Impair)
	}
	// On an ideal medium a frame cannot be damaged in transit, so the
	// simulation elides the FCS entirely: the transmitter appends none
	// and the receivers skip the check. Both sides consult this one
	// flag, fixed for the segment's lifetime, so they always agree on
	// the frame layout.
	seg.ideal = p.Bandwidth == 0 && p.Latency == 0 && seg.im == nil
	ck.Go(seg.transmitter)
	return seg
}

// Clock returns the clock the segment waits on.
func (seg *Segment) Clock() vclock.Clock { return seg.ck }

// Schedule returns the segment's recorded impairment decisions
// (requires Profile.Impair.Record); nil when unimpaired.
func (seg *Segment) Schedule() []medium.Decision {
	if seg.im == nil {
		return nil
	}
	return seg.im.Schedule()
}

// ImpairCounts returns the segment's impairment counters; zero when
// unimpaired.
func (seg *Segment) ImpairCounts() medium.Counts {
	if seg.im == nil {
		return medium.Counts{}
	}
	return seg.im.Counts()
}

// Name returns the segment's name.
func (seg *Segment) Name() string { return seg.name }

// MTU returns the medium MTU.
func (seg *Segment) MTU() int { return mtu(seg.profile) }

// Close shuts the medium down; interfaces stop receiving.
func (seg *Segment) Close() {
	seg.mu.Lock()
	if seg.closed {
		seg.mu.Unlock()
		return
	}
	seg.closed = true
	ifaces := seg.ifaces
	seg.mu.Unlock()
	seg.txq.Close()
	for _, ifc := range ifaces {
		ifc.close()
	}
}

// transmitter models the shared wire: one frame at a time, paced by
// bandwidth, then fanned out after the propagation latency. All
// waiting goes through the segment's clock, so a virtual clock replays
// the identical wire schedule.
func (seg *Segment) transmitter() {
	type timedFrame struct {
		tx txFrame
		at time.Time
	}
	sched := vclock.NewMailbox[timedFrame](seg.ck, 512)
	// The deliverer applies propagation latency in order, pipelined
	// behind the serializing transmitter.
	seg.ck.Go(func() {
		for {
			tf, ok := sched.Recv()
			if !ok {
				return
			}
			seg.ck.SleepUntil(tf.at)
			seg.fanOut(tf.tx.from, block.FromBytes(tf.tx.frame))
		}
	})
	defer sched.Close()
	var line medium.Pacer
	for {
		tx, ok := seg.txq.Recv()
		if !ok {
			return
		}
		p := seg.profile
		if p.Bandwidth > 0 {
			seg.ck.SleepUntil(line.Reserve(seg.ck.Now(), medium.TransmitTime(len(tx.frame), p.Bandwidth)))
		}
		if seg.im != nil {
			// The impairer decides drop/duplicate/corrupt/hold
			// for this wire position; each resulting copy is
			// scheduled at latency plus its jitter. The single
			// transmitter goroutine defines wire-position order,
			// so a fixed seed replays the identical schedule.
			for _, e := range seg.im.Apply(tx.frame) {
				if sched.Send(timedFrame{tx: txFrame{from: tx.from, frame: e.Data}, at: seg.ck.Now().Add(p.Latency + e.Delay)}) != nil {
					return
				}
			}
			continue
		}
		if sched.Send(timedFrame{tx: tx, at: seg.ck.Now().Add(p.Latency)}) != nil {
			return
		}
	}
}

// fanOut offers one frame to every station but its sender, in the
// order the stations joined the segment. The one block is shared by
// reference count — each interface reads it and releases its own
// reference; nobody copies, nobody mutates. Ownership of b transfers;
// false means the segment has closed and nothing was delivered.
func (seg *Segment) fanOut(from *Interface, b *block.Block) bool {
	seg.mu.Lock()
	if seg.closed {
		seg.mu.Unlock()
		b.Free()
		return false
	}
	ifaces := append([]*Interface(nil), seg.ifaces...)
	seg.mu.Unlock()
	n := 0
	for _, ifc := range ifaces {
		if ifc != from {
			n++
		}
	}
	if n == 0 {
		b.Free()
		return true
	}
	for i := 1; i < n; i++ {
		b.Ref()
	}
	for _, ifc := range ifaces {
		if ifc != from {
			ifc.deliver(b)
		}
	}
	return true
}

// transmitBlock queues a frame on the wire, appending the hardware FCS
// into the block's tailroom in place (elided on an ideal medium). It
// never parks. Ownership of b transfers to the segment.
func (seg *Segment) transmitBlock(from *Interface, b *block.Block) error {
	if n := b.Len() - HdrLen; n > seg.MTU() {
		b.Free()
		return fmt.Errorf("ether: packet exceeds MTU (%d > %d)", n, seg.MTU())
	}
	if seg.ideal {
		// Synchronous fast path for an ideal medium: no pacing, no
		// reordering possible, no FCS (nothing can damage the frame).
		if !seg.fanOut(from, b) {
			return vfs.ErrShutdown
		}
		return nil
	}
	// Paced or impaired medium: the FCS goes on the wire so damage is
	// detectable, and the frame leaves the block economy here. The
	// impairer must copy to corrupt (and to duplicate), and the
	// latency scheduler fans the same bytes out to every station, so a
	// detached plain slice is the honest representation.
	crc := crc32.ChecksumIEEE(b.Bytes())
	binary.BigEndian.PutUint32(b.Extend(fcsLen), crc)
	frame := b.Detach()
	if !seg.txq.TrySend(txFrame{from: from, frame: frame}) {
		return vfs.ErrShutdown
	}
	return nil
}

var macCounter atomic.Uint32

// Interface is one station on a segment: the LANCE analogue. Received
// frames are demultiplexed among conversations by packet type; every
// matching conversation receives a copy.
type Interface struct {
	seg  *Segment
	addr Addr
	name string

	convs  *devtree.Table[*Conn]   // conversations 1 … MaxConns, as in the file tree
	mu     sync.Mutex              // serializes publishers of active
	active atomic.Pointer[[]*Conn] // snapshot of the live conns, for the lock-free demux

	in *vclock.Mailbox[*block.Block]

	inPackets  atomic.Int64
	outPackets atomic.Int64
	inBytes    atomic.Int64
	outBytes   atomic.Int64
	overflows  atomic.Int64
	crcErrs    atomic.Int64 // frames that failed the FCS check
}

// CRCErrs reports how many damaged frames the interface discarded.
func (ifc *Interface) CRCErrs() int64 { return ifc.crcErrs.Load() }

// NewInterface attaches a new station to the segment. name is the
// device name it will carry in a file tree ("ether0").
func (seg *Segment) NewInterface(name string) *Interface {
	n := macCounter.Add(1)
	ifc := &Interface{
		seg:   seg,
		name:  name,
		addr:  Addr{0x08, 0x00, 0x69, byte(n >> 16), byte(n >> 8), byte(n)},
		convs: devtree.NewTable(1, MaxConns, (*Conn).hangup),
		in:    vclock.NewMailbox[*block.Block](seg.ck, 512),
	}
	seg.ck.Go(ifc.reader)
	seg.mu.Lock()
	seg.ifaces = append(seg.ifaces, ifc)
	seg.mu.Unlock()
	return ifc
}

// Addr returns the interface's Ethernet address.
func (ifc *Interface) Addr() Addr { return ifc.addr }

// Name returns the interface name.
func (ifc *Interface) Name() string { return ifc.name }

// Segment returns the medium the interface is attached to.
func (ifc *Interface) Segment() *Segment { return ifc.seg }

// MTU returns the medium MTU.
func (ifc *Interface) MTU() int { return ifc.seg.MTU() }

func (ifc *Interface) close() {
	// Undelivered frames go back to the block pool rather than to a
	// reader that has already quit.
	for _, b := range ifc.in.CloseDrain() {
		b.Free()
	}
}

// deliver is called by the medium with a received frame (the interrupt
// routine analogue): it may not block, so a full input ring drops the
// frame and counts an overflow. The interface takes ownership of (its
// reference to) the block.
func (ifc *Interface) deliver(b *block.Block) {
	if !ifc.in.TrySend(b) {
		ifc.overflows.Add(1)
		b.Free()
	}
}

// reader is the kernel process that drains the input ring and
// demultiplexes to conversations (§2.4.2: "the interrupt routine wakes
// up the kernel process...").
func (ifc *Interface) reader() {
	for {
		b, ok := ifc.in.Recv()
		if !ok {
			return
		}
		// Verify and strip the FCS: a frame damaged on the wire
		// never reaches the protocols — the hardware drops it and
		// counts a crc error, and recovery is the transport's
		// problem (loss, not corruption). The block may be shared
		// with other stations (broadcast fan-out), so it is read,
		// never written, and this reference is released when
		// demultiplexing returns.
		frame := b.Bytes()
		body := frame
		if ifc.seg.ideal {
			// An ideal medium carries no FCS (nothing to check).
			if len(frame) < HdrLen {
				ifc.crcErrs.Add(1)
				b.Free()
				continue
			}
		} else {
			if len(frame) < HdrLen+fcsLen {
				ifc.crcErrs.Add(1)
				b.Free()
				continue
			}
			body = frame[:len(frame)-fcsLen]
			if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(frame[len(frame)-fcsLen:]) {
				ifc.crcErrs.Add(1)
				b.Free()
				continue
			}
		}
		ifc.inPackets.Add(1)
		ifc.inBytes.Add(int64(len(body)))
		ifc.demux(body)
		b.Free()
	}
}

// demux delivers a copy of the frame to every matching conversation:
// "if several connections on an interface are configured for a
// particular packet type, each receives a copy of the incoming
// packets" (§2.2).
func (ifc *Interface) demux(frame []byte) {
	var dst Addr
	copy(dst[:], frame[0:6])
	etype := int(frame[12])<<8 | int(frame[13])
	toMe := dst == ifc.addr || dst == Broadcast
	conns := ifc.active.Load()
	if conns == nil {
		return
	}
	for _, c := range *conns {
		// One atomic load per conversation per frame: the match state
		// is a read-mostly snapshot rebuilt on the rare configuration
		// changes, so the per-frame demultiplex loop takes no locks.
		st := c.rx.Load()
		if st == nil {
			continue // hung up since the list was published
		}
		match := st.prom ||
			(toMe && (st.etype == TypeAll || st.etype == etype))
		if !match {
			continue
		}
		if st.deliver != nil {
			// Kernel hooks borrow the frame for the duration of the
			// call; the IP stack slices it in place and copies only
			// what it retains.
			c.inPackets.Add(1)
			st.deliver(frame)
			continue
		}
		s := st.stream
		// A conversation nobody reads must not wedge the interface:
		// the driver drops, like real input-ring overflow. The
		// threshold sits below the stream's own flow-control limit
		// so the demultiplexer can never block on one slow reader.
		if s.QueuedBytes() >= streams.DefaultLimit/2 {
			ifc.overflows.Add(1)
			continue
		}
		// Stream conversations get their own copy — "each receives a
		// copy of the incoming packets" — into a pooled block.
		c.inPackets.Add(1)
		b := block.Copy(frame, 0)
		b.Delim = true
		s.DeviceUp(b)
	}
}

// Conn is a conversation on the interface: one tenancy of a numbered
// connection directory of Figure 1.
type Conn struct {
	ifc *Interface
	id  int
	ref devtree.Ref[*Conn] // the kernel user's reference (OpenConn); zero for a cloned conversation

	// rx is the conversation's packet-type match state, and the
	// demultiplexer's view of it: an immutable snapshot replaced under
	// mu whenever it changes, so the per-frame receive path reads one
	// atomic pointer instead of taking the conversation lock.
	// Configuration changes are rare; frames are not. nil once the
	// conversation has hung up.
	mu sync.Mutex
	rx atomic.Pointer[rxState]

	inPackets  atomic.Int64
	outPackets atomic.Int64
}

// rxState is a Conn's frozen match state.
type rxState struct {
	prom    bool
	etype   int // 0 = unconfigured, -1 = all
	stream  *streams.Stream
	deliver func(frame []byte) // kernel hook bypassing the stream
}

// update replaces the match state with a changed copy. A conversation
// that has hung up stays hung up.
func (c *Conn) update(change func(*rxState)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.rx.Load(); old != nil {
		st := *old
		change(&st)
		c.rx.Store(&st)
	}
}

// OpenConn reserves a conversation programmatically (the kernel path
// used by the IP stack, equivalent to opening the clone file).
func (ifc *Interface) OpenConn() (*Conn, error) {
	ref, err := ifc.claim()
	if err != nil {
		return nil, err
	}
	c, _ := ref.Conv()
	c.ref = ref
	return c, nil
}

// claim reserves the lowest free conversation, unconfigured, and lists
// it for the demultiplexer.
func (ifc *Interface) claim() (devtree.Ref[*Conn], error) {
	ref, err := ifc.convs.Claim(func(id int) (*Conn, error) {
		c := &Conn{ifc: ifc, id: id}
		// The device end of the conversation's stream transmits frames.
		c.rx.Store(&rxState{stream: streams.New(0, func(b *streams.Block) {
			if b.Type != streams.BlockData {
				b.Free()
				return
			}
			c.transmit(b)
		})})
		return c, nil
	})
	if err == nil {
		ifc.publish()
	}
	return ref, err
}

// publish hands the demultiplexer the list of live conversations, in
// id order. It runs after every claim and hangup; between a change and
// its publication the demultiplexer at worst skips an unconfigured
// conversation or visits one whose rx is already nil.
func (ifc *Interface) publish() {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	var live []*Conn
	ifc.convs.Each(func(_ int, c *Conn) { live = append(live, c) })
	ifc.active.Store(&live)
}

// hangup resets the conversation when the final file in its connection
// directory is clunked.
func (c *Conn) hangup() {
	c.mu.Lock()
	st := c.rx.Swap(nil)
	c.mu.Unlock()
	st.stream.Close()
	c.ifc.publish()
}

// ID returns the conversation number.
func (c *Conn) ID() int { return c.id }

// SetType configures the packet type ("connect N" on the ctl file).
func (c *Conn) SetType(etype int) {
	c.update(func(st *rxState) { st.etype = etype })
}

// Type returns the configured packet type.
func (c *Conn) Type() int {
	if st := c.rx.Load(); st != nil {
		return st.etype
	}
	return 0
}

// SetPromiscuous turns promiscuous reception on ("promiscuous").
func (c *Conn) SetPromiscuous(on bool) {
	c.update(func(st *rxState) { st.prom = on })
}

// SetDeliver installs a kernel delivery hook: received frames go to fn
// instead of the conversation stream. The IP stack uses this to avoid
// a queue it would immediately drain. The frame is borrowed — it
// aliases a receive buffer recycled after fn returns — so the hook
// must copy anything it keeps.
func (c *Conn) SetDeliver(fn func(frame []byte)) {
	c.update(func(st *rxState) { st.deliver = fn })
}

// Transmit sends payload p to dst with the conversation's packet type,
// "appending a packet header containing the source address and packet
// type" (§2.2). The payload is borrowed and copied into a pooled
// frame; callers that already own a block use TransmitBlock.
func (c *Conn) Transmit(dst Addr, payload []byte) error {
	return c.TransmitBlock(dst, block.Copy(payload, HdrLen))
}

// TransmitBlock sends an owned payload block, pushing the frame header
// into its headroom in place. Ownership transfers to the driver.
func (c *Conn) TransmitBlock(dst Addr, payload *block.Block) error {
	hdr := payload.Prepend(HdrLen)
	copy(hdr[0:6], dst[:])
	copy(hdr[6:12], c.ifc.addr[:])
	etype := c.Type()
	hdr[12] = byte(etype >> 8)
	hdr[13] = byte(etype)
	c.outPackets.Add(1)
	c.ifc.outPackets.Add(1)
	c.ifc.outBytes.Add(int64(payload.Len()))
	return c.ifc.seg.transmitBlock(c.ifc, payload)
}

// transmit handles a raw write from the data file: the first 6 bytes
// are the destination address, the rest the payload. It consumes the
// stream block, carrying its buffer through to the wire.
func (c *Conn) transmit(w *streams.Block) {
	var dst Addr
	if w.Len() < len(dst) {
		w.Free()
		return
	}
	copy(dst[:], w.Bytes())
	w.Consume(len(dst))
	c.TransmitBlock(dst, w)
}

// Read returns the next received frame (header included), via the
// conversation stream. Used by the file tree's data file.
func (c *Conn) Read(p []byte) (int, error) {
	s := c.Stream()
	if s == nil {
		return 0, vfs.ErrHungup
	}
	return s.Read(p)
}

// Stream exposes the conversation stream (for pushing modules); nil
// once the conversation has hung up.
func (c *Conn) Stream() *streams.Stream {
	if st := c.rx.Load(); st != nil {
		return st.stream
	}
	return nil
}

// Close drops the kernel user's reference; on the last reference, the
// conversation resets, as when the final file in the connection
// directory is clunked.
func (c *Conn) Close() error {
	c.ref.Release()
	return nil
}

// Stats formats interface statistics in the ASCII style of the stats
// file (§2.2: "interface address, packet input/output counts, error
// statistics, and general information about the state of the
// interface"). The counter lines use the "name: value" shape that
// obs.ParseStats reads back, so the conformance suite can reconcile
// them against the impairment model's ground truth.
func (ifc *Interface) Stats() string {
	return fmt.Sprintf(
		"addr: %s\nmtu: %d\nin: %d\nout: %d\nin-bytes: %d\nout-bytes: %d\noverflows: %d\ncrc-errs: %d\n",
		ifc.addr, ifc.MTU(),
		ifc.inPackets.Load(), ifc.outPackets.Load(),
		ifc.inBytes.Load(), ifc.outBytes.Load(),
		ifc.overflows.Load(), ifc.crcErrs.Load())
}
