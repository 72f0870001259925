// Package datakit simulates Fraser's Datakit (§1, §2.3): a
// virtual-circuit network whose stations carry hierarchical names like
// "nj/astro/helix" and whose calls name a destination and service
// ("nj/astro/helix!9fs"). Circuit setup goes through the switch; data
// then flows over the circuit under URP, giving the reliable delimited
// transport that Plan 9 ran 9P over between Datakit machines.
//
// The medium profile applies per circuit leg, so the cell-oriented
// slowness of real Datakit (and hence the URP/Datakit row of Table 1)
// is reproduced by configuring a low bandwidth and small MTU.
package datakit

import (
	"errors"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/urp"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// Errors.
var (
	ErrNoHost    = errors.New("datakit: no such host")
	ErrNoService = vfs.ErrConnRef
	ErrNameTaken = errors.New("datakit: host name taken")
)

// Switch is the Datakit switch: the name-to-station directory plus
// circuit setup.
type Switch struct {
	profile medium.Profile

	mu    vclock.Lock
	hosts map[string]*Host
}

// NewSwitch creates a switch whose circuits have the given profile.
func NewSwitch(p medium.Profile) *Switch {
	sw := &Switch{profile: p, hosts: make(map[string]*Host)}
	sw.mu.Init(p.Clock)
	return sw
}

// NewHost attaches a station under a hierarchical name.
func (sw *Switch) NewHost(name string) (*Host, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, taken := sw.hosts[name]; taken {
		return nil, ErrNameTaken
	}
	h := &Host{sw: sw, name: name, listeners: make(map[string]listener)}
	h.mu.Init(sw.profile.Clock)
	sw.hosts[name] = h
	return h, nil
}

// Close tears the switch down.
func (sw *Switch) Close() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.hosts = make(map[string]*Host)
}

// dial sets up a circuit from the caller's device to the named host
// and service, delivers the called end's conversation to the listener,
// and returns the caller's end. Both ends' URP engines exist before the
// call is delivered, so each is its end's receiver before anyone
// writes.
func (sw *Switch) dial(from *Proto, dest, service string) (*urp.Conn, *medium.Duplex, error) {
	sw.mu.Lock()
	h := sw.hosts[dest]
	sw.mu.Unlock()
	if h == nil {
		return nil, nil, ErrNoHost
	}
	// Every enqueue happens under the host lock, and so does a
	// listener's close, which takes it out of the map: a backlog with
	// room here still has room at the TrySend.
	h.mu.Lock()
	defer h.mu.Unlock()
	l, ok := h.listeners[service]
	if !ok {
		// The announce-all listener takes services not explicitly
		// announced (§5.2).
		l, ok = h.listeners["*"]
	}
	if !ok || l.calls.Len() == backlog {
		return nil, nil, ErrNoService
	}
	a, b := medium.NewDuplex(sw.profile)
	u := from.engine(a)
	c := l.proto.newConn()
	c.urp, c.wire, c.local = l.proto.engine(b), b, h.name+"!"+service
	c.remote, c.service, c.state = from.host.name, service, "Established"
	l.calls.TrySend(c)
	return u, a, nil
}

// Host is one station on the switch.
type Host struct {
	sw   *Switch
	name string

	mu        vclock.Lock
	listeners map[string]listener
}

// backlog is how many calls a listener holds unaccepted; a dial past it
// is refused.
const backlog = 8

// listener is an announced service: the backlog its calls wait in, and
// the device whose books their circuits keep.
type listener struct {
	calls *vclock.Mailbox[*Conn]
	proto *Proto
}

// crcTable drives the CRC-16/CCITT the Datakit hardware framed cells
// with, a byte at a time. Only an impaired circuit computes it.
var crcTable [256]uint16

func init() {
	for i := range crcTable {
		crc := uint16(i) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		crcTable[i] = crc
	}
}

func crc16(p []byte) uint16 {
	var crc uint16
	for _, b := range p {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// fcsLen is the per-cell frame check sequence the hardware appends.
const fcsLen = 2

// end is one end of a call: the URP engine and, under it, the Datakit
// hardware's framing of its side of the circuit, in one allocation.
// Every cell carries a CRC-16 FCS. A cell damaged in flight fails the
// check and is discarded as if lost — URP never sees corrupt data (its
// cells carry no checksum of their own; the real hardware made the
// same promise), and it recovers the gap with its REJ/ENQ machinery.
// Only an impaired circuit can damage a cell, so only there is the CRC
// computed and checked; elsewhere the two FCS bytes still go on the
// wire, so the cell's wire time is the same.
type end struct {
	urp  urp.Conn
	d    *medium.Duplex
	errs *atomic.Int64
}

// SendCell frames the cell in place: URP hands over a pool-backed cell
// with capacity slack, so appending the FCS reuses the same buffer and
// the framed cell goes on the line with no wire copy, never parking.
func (e *end) SendCell(p []byte) time.Time {
	var fcs uint16
	if e.d.Impaired() {
		fcs = crc16(p)
	}
	return e.d.Put(append(p, byte(fcs>>8), byte(fcs)))
}

// receive is the circuit's receiver, on its delay line's event: the
// hardware's FCS check in front of URP. A cell that fails it goes back
// to the pool.
func (e *end) receive(cell []byte, err error) {
	if err == nil {
		var ok bool
		if cell, ok = e.check(cell); !ok {
			block.PutBytes(cell)
			return
		}
	}
	e.urp.Input(cell, err)
}

// check is the hardware's receive-side FCS check: it returns the cell
// without its FCS, or false, and counts an error, for a cell too short
// to carry one or, on an impaired circuit, whose last two bytes are not
// the CRC of the rest.
func (e *end) check(cell []byte) ([]byte, bool) {
	n := len(cell) - fcsLen
	if n < 0 || e.d.Impaired() && crc16(cell[:n]) != uint16(cell[n])<<8|uint16(cell[n+1]) {
		e.errs.Add(1)
		return cell, false
	}
	return cell[:n], true
}

func (e *end) Close() error {
	e.d.Close()
	return nil
}

// Proto is the protocol device ("dk") for a host.
type Proto struct {
	host  *Host
	Stats urp.Stats
	// FCSErrs counts cells the hardware discarded as damaged.
	FCSErrs atomic.Int64

	stats *obs.Group
}

var _ xport.Proto = (*Proto)(nil)

// NewProto wraps a host as an xport protocol.
func NewProto(h *Host) *Proto {
	p := &Proto{host: h}
	p.stats = new(obs.Group).
		AddAtomic("blocks", &p.Stats.Blocks).
		AddAtomic("retransmits", &p.Stats.Retransmits).
		AddAtomic("rejects", &p.Stats.Rejects).
		AddAtomic("enquiries", &p.Stats.Enquiries).
		AddAtomic("fcs-errs", &p.FCSErrs)
	return p
}

// StatsGroup exposes the URP engine counters; the netdev tree renders
// it into /net/dk/stats after the per-conversation lines.
func (p *Proto) StatsGroup() *obs.Group { return p.stats }

// Clock exposes the switch's medium clock so line disciplines pushed
// on Datakit conversations time their flush windows in the same
// (possibly virtual) time domain as the circuits underneath.
func (p *Proto) Clock() vclock.Clock { return p.host.sw.profile.Clock }

// Name implements xport.Proto.
func (p *Proto) Name() string { return "dk" }

// engine starts URP on one end of a circuit, keeping p's books, and
// makes it the end's receiver before anyone writes.
func (p *Proto) engine(d *medium.Duplex) *urp.Conn {
	e := &end{d: d, errs: &p.FCSErrs}
	e.urp.Init(e, &p.Stats, d.Clock())
	d.Receive(e.receive)
	return &e.urp
}

// NewConn implements xport.Proto.
func (p *Proto) NewConn() (xport.Conn, error) {
	return p.newConn(), nil
}

func (p *Proto) newConn() *Conn {
	c := &Conn{proto: p}
	c.mu.Init(p.Clock())
	return c
}

// Conn is a Datakit conversation: a URP engine over a circuit.
type Conn struct {
	proto *Proto

	mu       vclock.Lock
	urp      *urp.Conn
	wire     *medium.Duplex
	local    string
	remote   string
	service  string
	listenCh *vclock.Mailbox[*Conn]
	state    string
}

// WireCounts reports the circuit medium's impairment ground truth —
// what the wire actually did to the cells — for reconciling the stats
// files against it. ok is false before the circuit exists.
func (c *Conn) WireCounts() (counts medium.Counts, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wire == nil {
		return medium.Counts{}, false
	}
	return c.wire.ImpairCounts(), true
}

var _ xport.Conn = (*Conn)(nil)
var _ obs.Tracer = (*Conn)(nil)

// Trace implements obs.Tracer by delegating to the URP engine's ring;
// before the circuit exists (no connect or accept yet) it is nil and
// the trace file reads empty.
func (c *Conn) Trace() *obs.Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp == nil {
		return nil
	}
	return c.urp.Trace()
}

// Connect implements xport.Conn: addr is "nj/astro/helix!9fs".
func (c *Conn) Connect(addr string) error {
	dest, service, ok := strings.Cut(addr, "!")
	if !ok || dest == "" || service == "" {
		return xport.ErrBadAddress
	}
	// Dial without holding c.mu: dial takes Host.mu, and the lock
	// hierarchy is host before conversation (Announce holds Host.mu
	// while taking c.mu), so holding c.mu across the dial would
	// invert it.
	c.mu.Lock()
	if c.urp != nil || c.listenCh != nil {
		c.mu.Unlock()
		return xport.ErrConnected
	}
	c.mu.Unlock()
	u, wire, err := c.proto.host.sw.dial(c.proto, dest, service)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.urp != nil || c.listenCh != nil {
		// Lost the race to a concurrent Connect or Announce: hang the
		// fresh circuit up, the remote listener sees a hangup.
		c.mu.Unlock()
		u.Close()
		return xport.ErrConnected
	}
	defer c.mu.Unlock()
	c.urp = u
	c.wire = wire
	c.local = c.proto.host.name
	c.remote = addr
	c.service = service
	c.state = "Established"
	return nil
}

// Announce implements xport.Conn: addr is a service name, optionally
// "*!service".
func (c *Conn) Announce(addr string) error {
	service := addr
	if _, s, ok := strings.Cut(addr, "!"); ok {
		service = s
	}
	if service == "" {
		return xport.ErrBadAddress
	}
	h := c.proto.host
	h.mu.Lock()
	defer h.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp != nil || c.listenCh != nil {
		return xport.ErrConnected
	}
	if _, taken := h.listeners[service]; taken {
		return xport.ErrInUse
	}
	ch := vclock.NewMailbox[*Conn](h.sw.profile.Clock, backlog)
	h.listeners[service] = listener{ch, c.proto}
	c.listenCh = ch
	c.service = service
	c.local = h.name + "!" + service
	c.state = "Announced"
	return nil
}

// Listen implements xport.Conn.
func (c *Conn) Listen() (xport.Conn, error) {
	c.mu.Lock()
	ch := c.listenCh
	c.mu.Unlock()
	if ch == nil {
		return nil, xport.ErrNotAnnounced
	}
	call, ok := ch.Recv()
	if !ok {
		return nil, vfs.ErrHungup
	}
	return call, nil
}

// Read implements xport.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	u := c.urp
	c.mu.Unlock()
	if u == nil {
		return 0, xport.ErrNotConnected
	}
	return u.Read(p)
}

// Write implements xport.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	u := c.urp
	c.mu.Unlock()
	if u == nil {
		return 0, xport.ErrNotConnected
	}
	return u.Write(p)
}

// Stream implements xport.Conn: the URP engine's.
func (c *Conn) Stream() *streams.Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp == nil {
		return nil
	}
	return c.urp.Stream()
}

// LocalAddr implements xport.Conn.
func (c *Conn) LocalAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local
}

// RemoteAddr implements xport.Conn.
func (c *Conn) RemoteAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// Status implements xport.Conn.
func (c *Conn) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp != nil && c.urp.Dead() {
		return "Hungup"
	}
	if c.state == "" {
		return "Closed"
	}
	return c.state
}

// Close implements xport.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	u := c.urp
	ch := c.listenCh
	service := c.service
	c.urp = nil
	c.listenCh = nil
	c.state = "Closed"
	c.mu.Unlock()
	if ch != nil {
		h := c.proto.host
		h.mu.Lock()
		if h.listeners[service].calls == ch {
			delete(h.listeners, service)
		}
		backlog := ch.CloseDrain() // under h.mu: no dial can be mid-send
		h.mu.Unlock()
		for _, call := range backlog {
			call.urp.Close() // the caller hears a hangup
		}
	}
	if u != nil {
		return u.Close()
	}
	return nil
}
