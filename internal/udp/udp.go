// Package udp implements UDP over the simulated IP stack — the cheap,
// unreliable datagram baseline of §3 ("UDP, while cheap, does not
// provide reliable sequenced delivery"). The simulated DNS runs over
// it.
//
// Connected conversations exchange bare payloads. Announced
// conversations run in the Plan 9 "headers" style: each datagram read
// is prefixed with the remote address and port (4+2 bytes), and writes
// must carry the same 6-byte prefix to choose their destination — that
// is how a server answers many clients through one conversation.
package udp

import (
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/ip"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// HdrLen is the UDP header: src port, dst port, length, checksum.
const HdrLen = 8

// AddrHdrLen is the headers-mode prefix: remote IP (4) + port (2).
const AddrHdrLen = 6

// Proto is a machine's UDP protocol device.
type Proto struct {
	stack *ip.Stack

	mu    sync.Mutex
	bound map[uint16]*Conn // local port -> conversation
	ports xport.Ports
}

var _ xport.Proto = (*Proto)(nil)

// New creates the UDP device on a stack and registers its demux.
func New(stack *ip.Stack) *Proto {
	p := &Proto{stack: stack, bound: make(map[uint16]*Conn), ports: xport.NewPorts(5000)}
	stack.Register(ip.ProtoUDP, p.recv)
	return p
}

// Name implements xport.Proto.
func (p *Proto) Name() string { return "udp" }

// Clock returns the clock of the stack the device runs on.
func (p *Proto) Clock() vclock.Clock { return p.stack.Clock() }

// NewConn implements xport.Proto.
func (p *Proto) NewConn() (xport.Conn, error) {
	c := &Conn{proto: p}
	c.rstream = streams.NewClock(0, p.stack.Clock(), nil)
	return c, nil
}

// allocPort binds c to the port it asked for, or to an ephemeral one
// when it asked for none (want 0).
func (p *Proto) allocPort(want uint16, c *Conn) (uint16, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if want == 0 {
		var err error
		if want, err = p.ports.Ephemeral(); err != nil {
			return 0, err
		}
	} else if _, taken := p.bound[want]; taken {
		return 0, xport.ErrInUse
	}
	p.bound[want] = c
	p.ports.Hold(want)
	return want, nil
}

func (p *Proto) release(port uint16, c *Conn) {
	p.mu.Lock()
	if p.bound[port] == c {
		delete(p.bound, port)
		p.ports.Release(port)
	}
	p.mu.Unlock()
}

// recv demultiplexes an incoming datagram to the bound conversation.
func (p *Proto) recv(src, dst ip.Addr, payload []byte) {
	if len(payload) < HdrLen {
		return
	}
	srcPort := uint16(payload[0])<<8 | uint16(payload[1])
	dstPort := uint16(payload[2])<<8 | uint16(payload[3])
	n := int(payload[4])<<8 | int(payload[5])
	if n < HdrLen || n > len(payload) {
		return
	}
	data := payload[HdrLen:n]
	p.mu.Lock()
	c := p.bound[dstPort]
	p.mu.Unlock()
	if c == nil {
		return
	}
	c.deliver(src, srcPort, data)
}

// Conn is a UDP conversation.
type Conn struct {
	proto   *Proto
	rstream *streams.Stream

	mu         sync.Mutex
	localPort  uint16
	remoteAddr ip.Addr
	remotePort uint16
	localAddr  ip.Addr
	connected  bool
	announced  bool
	closed     bool
}

var _ xport.Conn = (*Conn)(nil)

// Connect implements xport.Conn.
func (c *Conn) Connect(addr string) error {
	a, port, err := ip.ParseHostPort(addr)
	if err != nil || a.IsZero() || port == 0 {
		return xport.ErrBadAddress
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.connected || c.announced {
		return xport.ErrConnected
	}
	local, err := c.proto.stack.LocalAddrFor(a)
	if err != nil {
		return err
	}
	lp, err := c.proto.allocPort(0, c)
	if err != nil {
		return err
	}
	c.localPort, c.localAddr = lp, local
	c.remoteAddr, c.remotePort = a, port
	c.connected = true
	return nil
}

// Announce implements xport.Conn. UDP has no announce-all listener:
// "*" binds an ephemeral port.
func (c *Conn) Announce(addr string) error {
	port, err := xport.AnnouncePort(addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.connected || c.announced {
		return xport.ErrConnected
	}
	lp, err := c.proto.allocPort(port, c)
	if err != nil {
		return err
	}
	c.localPort = lp
	c.announced = true
	return nil
}

// Listen implements xport.Conn; UDP is connectionless, so there are no
// calls to accept.
func (c *Conn) Listen() (xport.Conn, error) {
	return nil, fmt.Errorf("udp: no calls to listen for")
}

// deliver queues a received datagram, delimited, with the headers-mode
// prefix when announced.
func (c *Conn) deliver(src ip.Addr, srcPort uint16, data []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if c.connected && (src != c.remoteAddr || srcPort != c.remotePort) {
		c.mu.Unlock()
		return // connected conversations filter by peer
	}
	announced := c.announced
	s := c.rstream
	c.mu.Unlock()
	if announced {
		hdr := make([]byte, AddrHdrLen, AddrHdrLen+len(data))
		copy(hdr, src[:])
		hdr[4] = byte(srcPort >> 8)
		hdr[5] = byte(srcPort)
		data = append(hdr, data...)
	}
	b := streams.NewBlock(data)
	b.Delim = true
	s.DeviceUp(b)
}

// Read implements xport.Conn: one datagram per read.
func (c *Conn) Read(p []byte) (int, error) { return c.rstream.Read(p) }

// Write implements xport.Conn: one datagram per write.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	closed, connected, announced := c.closed, c.connected, c.announced
	dst, dstPort := c.remoteAddr, c.remotePort
	srcPort := c.localPort
	src := c.localAddr
	c.mu.Unlock()
	if closed {
		return 0, streams.ErrClosed
	}
	data := p
	switch {
	case connected:
	case announced:
		if len(p) < AddrHdrLen {
			return 0, xport.ErrBadAddress
		}
		copy(dst[:], p[:4])
		dstPort = uint16(p[4])<<8 | uint16(p[5])
		data = p[AddrHdrLen:]
		src = ip.Addr{}
	default:
		return 0, xport.ErrNotConnected
	}
	// One copy, user data into a pooled block with IP/ether headroom;
	// the stack prepends its header in place and takes ownership.
	b := block.Alloc(HdrLen+len(data), block.DefaultHeadroom)
	dgram := b.Bytes()
	dgram[0] = byte(srcPort >> 8)
	dgram[1] = byte(srcPort)
	dgram[2] = byte(dstPort >> 8)
	dgram[3] = byte(dstPort)
	n := len(dgram)
	dgram[4] = byte(n >> 8)
	dgram[5] = byte(n)
	dgram[6], dgram[7] = 0, 0 // checksum unused in the simulation
	copy(dgram[HdrLen:], data)
	if err := c.proto.stack.SendBlock(ip.ProtoUDP, src, dst, b); err != nil {
		return 0, err
	}
	return len(p), nil
}

// LocalAddr implements xport.Conn.
func (c *Conn) LocalAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ip.HostPort(c.localAddr, c.localPort)
}

// RemoteAddr implements xport.Conn.
func (c *Conn) RemoteAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ip.HostPort(c.remoteAddr, c.remotePort)
}

// Status implements xport.Conn.
func (c *Conn) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return "Closed"
	case c.connected:
		return "Connected"
	case c.announced:
		return "Announced"
	}
	return "Open"
}

// Close implements xport.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	port := c.localPort
	c.mu.Unlock()
	if port != 0 {
		c.proto.release(port, c)
	}
	c.rstream.Close()
	return nil
}
