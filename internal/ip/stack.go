package ip

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Handler receives a demultiplexed transport payload. The payload is
// borrowed — it aliases a receive buffer that is recycled when the
// handler returns — so a handler that retains bytes must copy them.
type Handler func(src, dst Addr, payload []byte)

// Stack is one machine's IP layer: bound interfaces, a routing table,
// ARP, and the transport protocol dispatch table.
type Stack struct {
	clk      vclock.Clock
	mu       sync.RWMutex
	ifcs     []*Ifc
	routes   []Route
	handlers map[uint8]Handler
	forward  bool

	// loop is the loopback medium: packets for a local address, in send
	// order, for the one process that the first of them starts.
	loop      *vclock.Mailbox[loopPkt]
	loopStart sync.Once

	ipID atomic.Uint32

	InPackets   atomic.Int64
	OutPackets  atomic.Int64
	Forwarded   atomic.Int64
	BadHeaders  atomic.Int64
	NoRoute     atomic.Int64
	Unreachable atomic.Int64 // no handler for protocol
	ArpDrops    atomic.Int64 // packets freed unsent: hold queue full, or no answer
}

// loopPkt is one packet on the loopback medium.
type loopPkt struct {
	proto    uint8
	src, dst Addr
	b        *block.Block
}

// Ifc is an IP interface: an ether conversation pair (IP + ARP)
// configured with a local address and mask.
type Ifc struct {
	stack  *Stack
	conn   *ether.Conn
	arpc   *ether.Conn
	ifc    *ether.Interface
	addr   Addr
	mask   Addr
	arp    *arpCache
	closed atomic.Bool
}

// Route sends packets for Dst/Mask via Gateway (0 = directly attached).
type Route struct {
	Dst     Addr
	Mask    Addr
	Gateway Addr
}

// NewStack returns an empty stack on the real clock.
func NewStack() *Stack { return NewStackClock(nil) }

// NewStackClock returns an empty stack whose timers (and those of the
// transports built on it) run on ck; nil means the real clock.
func NewStackClock(ck vclock.Clock) *Stack {
	ck = vclock.Or(ck)
	return &Stack{clk: ck, handlers: make(map[uint8]Handler), loop: vclock.NewMailbox[loopPkt](ck, 0)}
}

// Clock returns the stack's clock.
func (s *Stack) Clock() vclock.Clock { return s.clk }

// SetForwarding enables relaying packets between interfaces, making
// the machine an IP gateway.
func (st *Stack) SetForwarding(on bool) {
	st.mu.Lock()
	st.forward = on
	st.mu.Unlock()
}

// Register installs the receive handler for an IP protocol number.
func (st *Stack) Register(proto uint8, h Handler) {
	st.mu.Lock()
	st.handlers[proto] = h
	st.mu.Unlock()
}

// Bind attaches the stack to an Ethernet interface with a local
// address: it opens two conversations on the device — packet type
// 0x0800 for IP and 0x0806 for ARP — exactly as a user process would
// through the file tree.
func (st *Stack) Bind(eifc *ether.Interface, addr, mask Addr) (*Ifc, error) {
	ipConn, err := eifc.OpenConn()
	if err != nil {
		return nil, err
	}
	ipConn.SetType(ether.TypeIP)
	arpConn, err := eifc.OpenConn()
	if err != nil {
		ipConn.Close()
		return nil, err
	}
	arpConn.SetType(ether.TypeARP)
	ifc := &Ifc{
		stack: st,
		conn:  ipConn,
		arpc:  arpConn,
		ifc:   eifc,
		addr:  addr,
		mask:  mask,
	}
	ifc.arp = newArpCache(ifc)
	ipConn.SetDeliver(ifc.recvIP)
	arpConn.SetDeliver(ifc.arp.recvARP)
	st.mu.Lock()
	st.ifcs = append(st.ifcs, ifc)
	// A directly attached route for the subnet.
	st.routes = append(st.routes, Route{Dst: addr.Mask(mask), Mask: mask})
	st.mu.Unlock()
	return ifc, nil
}

// Addr returns the interface's IP address.
func (ifc *Ifc) Addr() Addr { return ifc.addr }

// Close releases the interface's ether conversations.
func (ifc *Ifc) Close() {
	if ifc.closed.CompareAndSwap(false, true) {
		ifc.conn.Close()
		ifc.arpc.Close()
	}
}

// Close shuts down every interface and the loopback medium.
func (st *Stack) Close() {
	st.mu.Lock()
	ifcs := st.ifcs
	st.ifcs = nil
	st.mu.Unlock()
	for _, ifc := range ifcs {
		ifc.Close()
	}
	for _, p := range st.loop.CloseDrain() {
		p.b.Free()
	}
}

// AddRoute installs a route; gateways come from the ndb ipgw
// attribute.
func (st *Stack) AddRoute(dst, mask, gw Addr) {
	st.mu.Lock()
	st.routes = append(st.routes, Route{Dst: dst.Mask(mask), Mask: mask, Gateway: gw})
	st.mu.Unlock()
}

// AddDefaultRoute installs a route for everything.
func (st *Stack) AddDefaultRoute(gw Addr) {
	st.AddRoute(Addr{}, Addr{}, gw)
}

// Addrs lists the local addresses.
func (st *Stack) Addrs() []Addr {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var as []Addr
	for _, ifc := range st.ifcs {
		as = append(as, ifc.addr)
	}
	return as
}

// IsLocal reports whether a names this machine.
func (st *Stack) IsLocal(a Addr) bool {
	if a == (Addr{127, 0, 0, 1}) {
		return true
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, ifc := range st.ifcs {
		if ifc.addr == a {
			return true
		}
	}
	return false
}

// route picks the interface and next hop for dst: a directly attached
// subnet wins; otherwise the most specific matching route's gateway,
// which itself must be on an attached subnet.
func (st *Stack) route(dst Addr) (*Ifc, Addr, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	// Most specific route match.
	var best *Route
	for i := range st.routes {
		r := &st.routes[i]
		if dst.Mask(r.Mask) != r.Dst {
			continue
		}
		if best == nil || wider(best.Mask, r.Mask) {
			best = r
		}
	}
	if best == nil {
		return nil, Addr{}, vfs.ErrNoNet
	}
	nexthop := dst
	if !best.Gateway.IsZero() {
		nexthop = best.Gateway
	}
	for _, ifc := range st.ifcs {
		if nexthop.Mask(ifc.mask) == ifc.addr.Mask(ifc.mask) {
			return ifc, nexthop, nil
		}
	}
	return nil, Addr{}, vfs.ErrNoNet
}

// wider reports whether mask a is strictly wider (less specific) than b.
func wider(a, b Addr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// LocalAddrFor returns the source address the stack would use to reach
// dst; connecting transports use it to fill their local endpoint.
func (st *Stack) LocalAddrFor(dst Addr) (Addr, error) {
	if st.IsLocal(dst) {
		return dst, nil
	}
	ifc, _, err := st.route(dst)
	if err != nil {
		return Addr{}, err
	}
	return ifc.addr, nil
}

// MTUFor returns the transport MTU (medium MTU minus the IP header)
// on the path interface toward dst.
func (st *Stack) MTUFor(dst Addr) int {
	if st.IsLocal(dst) {
		return 64 * 1024
	}
	ifc, _, err := st.route(dst)
	if err != nil {
		return 1500 - HdrLen
	}
	return ifc.ifc.MTU() - HdrLen
}

// SendBlock transmits the transport packet b to dst as protocol proto;
// a zero src is filled from the chosen interface. The caller owns b as
// a pooled block with header headroom, and ownership transfers to the
// stack, which prepends the IP header in place. SendBlock never parks
// and never calls a transport back, so transports call it with their
// conversation locks held: a packet for a local address goes on the
// loopback medium, not straight to its handler.
//
//netvet:owns b
func (st *Stack) SendBlock(proto uint8, src, dst Addr, b *block.Block) error {
	if !st.IsLocal(dst) {
		return st.sendRemote(proto, src, dst, b)
	}
	if src.IsZero() {
		src = dst
	}
	st.loopStart.Do(func() { st.clk.Go(st.loopback) })
	if !st.loop.TrySend(loopPkt{proto: proto, src: src, dst: dst, b: b}) {
		b.Free()
		return vfs.ErrShutdown
	}
	st.OutPackets.Add(1)
	return nil
}

// loopback is the loopback medium's process: it hands local packets to
// their transports in send order until Close.
func (st *Stack) loopback() {
	for {
		p, ok := st.loop.Recv()
		if !ok {
			return
		}
		st.deliverLocal(p.proto, p.src, p.dst, p.b.Bytes())
		p.b.Free()
	}
}

func (st *Stack) sendRemote(proto uint8, src, dst Addr, b *block.Block) error {
	ifc, nexthop, err := st.route(dst)
	if err != nil {
		st.NoRoute.Add(1)
		b.Free()
		return err
	}
	if src.IsZero() {
		src = ifc.addr
	}
	if HdrLen+b.Len() > ifc.ifc.MTU() {
		n := HdrLen + b.Len()
		b.Free()
		return fmt.Errorf("ip: packet too large for interface (%d > %d)", n, ifc.ifc.MTU())
	}
	h := Header{
		ID:    uint16(st.ipID.Add(1)),
		TTL:   DefaultTTL,
		Proto: proto,
		Src:   src,
		Dst:   dst,
	}
	h.PrependTo(b)
	st.OutPackets.Add(1)
	return ifc.arp.send(nexthop, b)
}

// deliverLocal hands a payload to the registered transport.
func (st *Stack) deliverLocal(proto uint8, src, dst Addr, payload []byte) {
	st.mu.RLock()
	h := st.handlers[proto]
	st.mu.RUnlock()
	if h == nil {
		st.Unreachable.Add(1)
		return
	}
	h(src, dst, payload)
}

// recvIP handles a received Ethernet frame carrying IP.
func (ifc *Ifc) recvIP(frame []byte) {
	st := ifc.stack
	if len(frame) < ether.HdrLen {
		return
	}
	h, payload, err := Unmarshal(frame[ether.HdrLen:])
	if err != nil {
		st.BadHeaders.Add(1)
		return
	}
	if st.IsLocal(h.Dst) {
		st.InPackets.Add(1)
		st.deliverLocal(h.Proto, h.Src, h.Dst, payload)
		return
	}
	// Not for us: forward if we are a gateway.
	st.mu.RLock()
	fwd := st.forward
	st.mu.RUnlock()
	if !fwd {
		return
	}
	if h.TTL <= 1 {
		return
	}
	out, nexthop, err := st.route(h.Dst)
	if err != nil {
		st.NoRoute.Add(1)
		return
	}
	h.TTL--
	st.Forwarded.Add(1)
	// The forwarded copy is mandatory: payload aliases the inbound
	// receive buffer, which dies when this handler returns.
	relay := block.Copy(payload, block.DefaultHeadroom)
	h.PrependTo(relay)
	out.arp.send(nexthop, relay)
}

// Stats formats the stack counters in the ASCII style of /net/ipifc
// status files.
func (st *Stack) Stats() string {
	return fmt.Sprintf("in: %d\nout: %d\nforwarded: %d\nbad headers: %d\nno route: %d\nunreachable: %d\narp-drops: %d\n",
		st.InPackets.Load(), st.OutPackets.Load(), st.Forwarded.Load(),
		st.BadHeaders.Load(), st.NoRoute.Load(), st.Unreachable.Load(), st.ArpDrops.Load())
}
