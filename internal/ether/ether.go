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
// 10 Mb/s hardware; the zero Profile is a wire with nothing to pace,
// so tests run at memory speed. Either way a sender books the wire
// (medium.Pacer) and the frame crosses the segment's delay line
// (medium.Delay), due at once on an ideal wire. Only an impaired wire
// carries and checks an FCS.
//
// A frame costs no hand-off between processes: the delay line's clock
// event, at the frame's instant, runs each hearing station's receive
// itself — FCS check, counters, demultiplexing — as §2.4.2's interrupt
// routine does, and only a reader that waits for the frame is woken.
// The sender, which
// may hold its conversation lock, never runs a receive, so a reply
// cannot re-enter it. Nor does a receive wait for anything: a stream
// conversation's copy goes in through the refusing put
// (streams.Stream.Produce), so a conversation nobody reads loses its
// frames, counted in overflows as an input ring's would be, and the
// segment's other stations lose nothing.
//
// Like a LANCE, an interface hears only the frames it would accept: a
// broadcast, a frame addressed to it, and — while one of its
// conversations is promiscuous — every other frame. The segment applies
// that filter before it hands a frame to a station, so an interface's
// in, in-bytes, crc-errs and overflows counters count only frames the
// address filter passed.
package ether

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"

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
// interface reaches every other interface that would accept it (medium
// effects permitting).
type Segment struct {
	profile Profile
	ck      vclock.Clock
	im      *medium.Impairer // nil on an unimpaired, lossless segment; only its frames carry an FCS

	// stations is the address filter the per-frame path reads without
	// a lock; mu serializes the writers that replace it. nil once the
	// segment has closed. mu also serializes transmissions: the order
	// frames take it in is wire order.
	mu       vclock.Lock
	stations atomic.Pointer[stations]
	joined   uint32 // stations ever attached; numbers the next one's address

	// line books the wire and delay carries frames across it. Put
	// never parks, so IL and TCP may transmit under their conversation
	// locks; what bounds the line is what they may hold in flight —
	// IL's window, TCP's 64 KiB buffer, ARP's 16.
	line  medium.Pacer
	delay *medium.Delay[txFrame]
}

// txFrame is a frame on its way across the wire. dst is the
// destination its sender wrote, recorded before the impairer can
// damage the bytes.
type txFrame struct {
	from *Interface
	dst  Addr
	b    *block.Block
}

// stations is the segment's station set: who hears a frame, by the
// destination its sender wrote. It is immutable. NewInterface,
// SetPromiscuous and the hangup of a promiscuous conversation publish
// a new one under Segment.mu, so a frame costs one atomic load and a
// map lookup, not a lock and a copy of the station list.
type stations struct {
	all  []*Interface          // join order: who hears a broadcast
	to   map[Addr][]*Interface // a station's address → who hears a frame sent to it: it and the promiscuous stations, in join order
	prom []*Interface          // the promiscuous stations, in join order: who hears a frame sent to nobody here
}

// newStations builds the station set over all, taking each station's
// promiscuity as its conversations have it now.
func newStations(all []*Interface) *stations {
	s := &stations{all: all, to: make(map[Addr][]*Interface, len(all))}
	var promAt []int
	for i, ifc := range all {
		if ifc.promiscuous() {
			promAt = append(promAt, i)
			s.prom = append(s.prom, ifc)
		}
	}
	for i, ifc := range all {
		if k, found := slices.BinarySearch(promAt, i); found {
			s.to[ifc.addr] = s.prom
		} else {
			s.to[ifc.addr] = slices.Insert(slices.Clip(s.prom), k, ifc)
		}
	}
	return s
}

// hearers returns the stations a frame sent to dst reaches, the sender
// included if it is among them.
func (s *stations) hearers(dst Addr) []*Interface {
	if dst == Broadcast {
		return s.all
	}
	if to, ok := s.to[dst]; ok {
		return to
	}
	return s.prom
}

// NewSegment creates a segment with the given medium profile. Unlike
// a pipe's, the profile's Clock is required: the wire's delay line
// runs on it.
func NewSegment(p Profile) *Segment {
	seg := &Segment{
		profile: p,
		ck:      p.Clock,
	}
	seg.mu.Init(p.Clock)
	seg.line.Init(p.Clock)
	seg.stations.Store(newStations(nil))
	if p.Impair.Armed(p.Loss) {
		seg.im = medium.NewImpairer(p.Clock, p.Seed+1, p.Loss, p.Impair)
	}
	seg.delay = medium.NewDelay(p.Clock, 0, func(f txFrame) { seg.fanOut(f.from, f.dst, f.b) })
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

// MTU returns the medium MTU.
func (seg *Segment) MTU() int { return mtu(seg.profile) }

// Close shuts the medium down; interfaces stop receiving.
func (seg *Segment) Close() {
	seg.mu.Lock()
	st := seg.stations.Swap(nil)
	seg.mu.Unlock()
	if st == nil {
		return
	}
	for _, f := range seg.delay.Close() {
		f.b.Free()
	}
	if seg.im != nil {
		seg.im.Close()
	}
}

// refilter republishes the station set after a conversation's
// promiscuity changed.
func (seg *Segment) refilter() {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if st := seg.stations.Load(); st != nil {
		seg.stations.Store(newStations(st.all))
	}
}

// fanOut runs on the delay line: it hands one frame to the receive of
// every station but its sender that would accept it — all of them for
// a broadcast; for a unicast, the addressee and the promiscuous
// stations — in the order they joined the segment. dst is the
// destination the sender wrote,
// not the received bytes', so a copy the wire damaged still reaches its
// addressee and dies at that station's FCS check. The one block is
// shared by reference count — each interface reads it and releases its
// own reference; nobody copies, nobody mutates. Ownership of b
// transfers; false means the segment has closed and nothing was
// delivered.
func (seg *Segment) fanOut(from *Interface, dst Addr, b *block.Block) {
	st := seg.stations.Load()
	if st == nil {
		b.Free()
		return
	}
	to := st.hearers(dst)
	n := 0
	for _, ifc := range to {
		if ifc != from {
			n++
		}
	}
	if n == 0 {
		b.Free()
		return
	}
	for i := 1; i < n; i++ {
		b.Ref()
	}
	for _, ifc := range to {
		if ifc != from {
			ifc.receive(b)
		}
	}
}

// transmitBlock puts a frame for dst on the wire without parking; b
// becomes the segment's. It books the wire for its serialization time,
// FCS included, and goes on the delay line to arrive when its last bit
// has left plus the latency — at once on an ideal wire, where both are
// zero. The segment lock makes booking order wire order, so a fixed
// seed replays the identical schedule. Only an impaired wire computes
// the FCS, and each copy its impairer emits travels as bytes of its own.
func (seg *Segment) transmitBlock(from *Interface, dst Addr, b *block.Block) error {
	if n := b.Len() - HdrLen; n > seg.MTU() {
		b.Free()
		return fmt.Errorf("ether: packet exceeds MTU (%d > %d)", n, seg.MTU())
	}
	p := seg.profile
	seg.mu.Lock()
	defer seg.mu.Unlock()
	at := seg.line.Reserve(seg.ck.Now(), medium.TransmitTime(b.Len()+fcsLen, p.Bandwidth)).Add(p.Latency)
	if seg.im == nil {
		if !seg.delay.Put(txFrame{from, dst, b}, at) {
			b.Free()
			return vfs.ErrShutdown
		}
		return nil
	}
	crc := crc32.ChecksumIEEE(b.Bytes())
	binary.BigEndian.PutUint32(b.Extend(fcsLen), crc)
	copies := seg.im.Apply(b.Bytes(), txFrame{from: from, dst: dst})
	b.Free()
	for i, e := range copies {
		f := e.Route.(txFrame) // a frame held for reordering keeps its own route
		f.b = block.FromBytes(e.Data)
		if !seg.delay.Put(f, at.Add(e.Delay)) {
			f.b.Free()
			for _, e := range copies[i+1:] {
				block.PutBytes(e.Data)
			}
			return vfs.ErrShutdown
		}
	}
	return nil
}

// Interface is one station on a segment: the LANCE analogue. Received
// frames are demultiplexed among conversations by packet type; every
// matching conversation receives a copy.
type Interface struct {
	seg  *Segment
	addr Addr
	name string

	convs  *devtree.Table[*Conn]   // conversations 1 … MaxConns, as in the file tree
	mu     vclock.Lock             // serializes publishers of active
	active atomic.Pointer[[]*Conn] // snapshot of the live conns, for the lock-free demux

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
// device name it will carry in a file tree ("ether0"). Addresses count
// up per segment, so the stations of one run are numbered alike in every
// run.
func (seg *Segment) NewInterface(name string) *Interface {
	seg.mu.Lock()
	seg.joined++
	n := seg.joined
	seg.mu.Unlock()
	ifc := &Interface{
		seg:   seg,
		name:  name,
		addr:  Addr{0x08, 0x00, 0x69, byte(n >> 16), byte(n >> 8), byte(n)},
		convs: devtree.NewTable(seg.ck, 1, MaxConns, (*Conn).hangup),
	}
	ifc.mu.Init(seg.ck)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if st := seg.stations.Load(); st != nil {
		seg.stations.Store(newStations(append(slices.Clip(st.all), ifc)))
	}
	return ifc
}

// Addr returns the interface's Ethernet address.
func (ifc *Interface) Addr() Addr { return ifc.addr }

// MTU returns the medium MTU.
func (ifc *Interface) MTU() int { return ifc.seg.MTU() }

// promiscuous reports whether a live conversation on the interface
// asked for every frame on the wire.
func (ifc *Interface) promiscuous() bool {
	if conns := ifc.active.Load(); conns != nil {
		for _, c := range *conns {
			if st := c.rx.Load(); st != nil && st.prom {
				return true
			}
		}
	}
	return false
}

// receive verifies and strips the FCS, counts the frame and
// demultiplexes it. A frame damaged on the wire never reaches the
// protocols — the hardware drops it and counts a crc error, and
// recovery is the transport's problem (loss, not corruption). The block
// may be shared with other stations (broadcast fan-out), so it is read,
// never written, and this reference is released when demultiplexing
// returns. It runs on the segment's delay line, so nothing here parks:
// a park would stall every station's frames behind this one.
func (ifc *Interface) receive(b *block.Block) {
	frame, fcs := b.Bytes(), ifc.seg.im != nil // only an impaired wire's frames carry one
	n := len(frame)
	if fcs {
		n -= fcsLen
	}
	if n < HdrLen || fcs && crc32.ChecksumIEEE(frame[:n]) != binary.BigEndian.Uint32(frame[n:]) {
		ifc.crcErrs.Add(1)
		b.Free()
		return
	}
	body := frame[:n]
	ifc.inPackets.Add(1)
	ifc.inBytes.Add(int64(len(body)))
	ifc.demux(body)
	b.Free()
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
		// Stream conversations get their own copy — "each receives a
		// copy of the incoming packets" — into a pooled block, which a
		// conversation nobody reads refuses, like input-ring overflow.
		b := block.Copy(frame, 0)
		b.Delim = true
		if st.stream.Produce(b) {
			c.inPackets.Add(1)
		} else {
			ifc.overflows.Add(1)
		}
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
	mu vclock.Lock
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
		c.mu.Init(ifc.seg.ck)
		// The stream carries received frames up to the data file's
		// readers. Writes to the data file transmit directly
		// (Transmit), so the device end only frees what reaches it.
		c.rx.Store(&rxState{stream: streams.NewClock(0, ifc.seg.ck, (*streams.Block).Free)})
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
	if st.prom {
		c.ifc.seg.refilter()
	}
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

// SetPromiscuous turns promiscuous reception on ("promiscuous"): the
// interface then hears every frame on the segment, not only its own.
func (c *Conn) SetPromiscuous(on bool) {
	c.update(func(st *rxState) { st.prom = on })
	c.ifc.seg.refilter()
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
	return c.ifc.seg.transmitBlock(c.ifc, dst, payload)
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
// them against the impairment model's ground truth. in, in-bytes,
// crc-errs and overflows count only frames the address filter passed
// — broadcasts, frames for this station, and while a conversation is
// promiscuous everything else — as a LANCE's would.
func (ifc *Interface) Stats() string {
	return fmt.Sprintf(
		"addr: %s\nmtu: %d\nin: %d\nout: %d\nin-bytes: %d\nout-bytes: %d\noverflows: %d\ncrc-errs: %d\n",
		ifc.addr, ifc.MTU(),
		ifc.inPackets.Load(), ifc.outPackets.Load(),
		ifc.inBytes.Load(), ifc.outBytes.Load(),
		ifc.overflows.Load(), ifc.crcErrs.Load())
}
