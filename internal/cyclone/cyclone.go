// Package cyclone simulates the Cyclone fiber links of §7: "a link
// consists of two VME cards connected by a pair of optical fibers ...
// to drive the lines at 125 Mbit/sec. Software in the VME card reduces
// latency by copying messages from system memory to fiber without
// intermediate buffering."
//
// The hardware provides reliable, delimited message delivery, so the
// device is simply a very fast point-to-point framed link: no protocol
// engine at all, which is why Cyclone is the fastest network row of
// Table 1. It still presents the uniform conversation interface so it
// mounts under /net like every other protocol device; the single
// point-to-point link carries one conversation.
package cyclone

import (
	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// MaxMsg is the largest message the boards frame.
const MaxMsg = 64 * 1024

// Link is one fiber pair between two machines.
type Link struct {
	a, b *End
}

// NewLink creates a link with the given per-direction profile and
// returns it; Ends attach machines.
func NewLink(name string, p medium.Profile) *Link {
	if p.MTU == 0 {
		p.MTU = MaxMsg
	}
	da, db := medium.NewDuplex(p)
	l := &Link{}
	l.a = newEnd(l, name, da)
	l.b = newEnd(l, name, db)
	l.a.peer, l.b.peer = l.b, l.a
	return l
}

func newEnd(l *Link, name string, wire *medium.Duplex) *End {
	e := &End{link: l, name: name, wire: wire}
	e.in = streams.NewConv(0, wire.Clock(), e)
	e.mu.Init(wire.Clock())
	e.cond.Init(wire.Clock(), &e.mu)
	wire.Receive(e.receive)
	return e
}

// receive runs on the fiber's clock event: each message goes up the
// end's read stream as one delimited block, which the sender's credit
// (see Write) has room for. The wire hands over the buffer (the
// impairer copies per delivery), and the block is that buffer: the one
// copy on the way in is the reader's.
func (e *End) receive(msg []byte, err error) {
	if err != nil {
		e.in.HangupUp()
		return
	}
	b := block.FromBytes(msg)
	b.Delim = true
	e.in.Deliver(b)
}

// Ends returns the two ends of the link.
func (l *Link) Ends() (*End, *End) { return l.a, l.b }

// Close tears the link down; what neither end has read is lost.
func (l *Link) Close() {
	l.a.wire.Close() // both directions: the ends share the fiber pair
	l.a.in.Close()
	l.b.in.Close()
}

// End is one machine's VME card.
type End struct {
	link *Link
	peer *End // the other end of the fiber
	name string
	wire *medium.Duplex
	in   *streams.Stream // the conversation's stream: what the fiber delivers, what Write sends

	mu   vclock.Lock
	cond vclock.Cond
	conn *Conn // conversation currently owning the wire
}

var _ xport.Proto = (*End)(nil)

// Name implements xport.Proto: the device appears as "cyc" under /net.
func (e *End) Name() string { return "cyc" }

// Clock implements xport.Proto: the clock the fiber paces on.
func (e *End) Clock() vclock.Clock { return e.wire.Clock() }

// NewConn implements xport.Proto. The link is point-to-point: one
// conversation at a time.
func (e *End) NewConn() (xport.Conn, error) {
	return e.newConn(false), nil
}

// Conn is the (single) conversation on a link end.
type Conn struct {
	end *End

	mu        vclock.Lock
	attached  bool
	announced bool
	closed    bool
}

func (e *End) newConn(attached bool) *Conn {
	c := &Conn{end: e, attached: attached}
	c.mu.Init(e.Clock())
	return c
}

var _ xport.Conn = (*Conn)(nil)

// attach claims the link for this conversation. Lock order on a link
// is e.mu before c.mu (Listen polls isClosed while holding e.mu), so
// the wire is claimed first and the conversation marked after, never
// nesting the two the other way around.
func (c *Conn) attach() error {
	e := c.end
	e.mu.Lock()
	if e.conn != nil && e.conn != c {
		e.mu.Unlock()
		return xport.ErrInUse
	}
	e.conn = c
	e.mu.Unlock()
	c.mu.Lock()
	if c.closed {
		// Lost a race with Close: give the wire back.
		c.mu.Unlock()
		e.mu.Lock()
		if e.conn == c {
			e.conn = nil
		}
		e.cond.Broadcast()
		e.mu.Unlock()
		return vfs.ErrHungup
	}
	c.attached = true
	c.mu.Unlock()
	return nil
}

// Connect implements xport.Conn; the address is ignored (there is only
// the other end of the fiber).
func (c *Conn) Connect(addr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return vfs.ErrHungup
	}
	c.mu.Unlock()
	return c.attach()
}

// Announce implements xport.Conn. Announcing does not claim the wire;
// accepted conversations do.
func (c *Conn) Announce(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return vfs.ErrHungup
	}
	c.announced = true
	return nil
}

// Listen implements xport.Conn. A fiber has no call setup: the link
// carries exactly one conversation at a time, so listen blocks while
// the wire is held and yields a fresh conversation as soon as it is
// free — the next client "call" is simply its first message.
func (c *Conn) Listen() (xport.Conn, error) {
	c.mu.Lock()
	if !c.announced {
		c.mu.Unlock()
		return nil, xport.ErrNotAnnounced
	}
	c.mu.Unlock()
	e := c.end
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.conn != nil {
		if c.isClosed() {
			return nil, vfs.ErrHungup
		}
		e.cond.Wait()
	}
	nc := e.newConn(true)
	e.conn = nc
	return nc, nil
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Stream implements xport.Conn: the end's stream, while the
// conversation holds the link.
func (c *Conn) Stream() *streams.Stream {
	if !c.holds() {
		return nil
	}
	return c.end.in
}

func (c *Conn) holds() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attached && !c.closed
}

// Read implements xport.Conn: one framed message per read. A message
// longer than p is handed over in pieces — the remainder waits on the
// stream for the next Read — and a read never crosses a message
// boundary.
func (c *Conn) Read(p []byte) (int, error) {
	if !c.holds() {
		return 0, xport.ErrNotConnected
	}
	n, err := c.end.in.Read(p)
	if err != nil {
		return 0, vfs.ErrHungup
	}
	return n, nil
}

// Write implements xport.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	if !c.holds() {
		return 0, xport.ErrNotConnected
	}
	return c.end.Write(p)
}

// Write is the device end of the end's stream: the boards copy
// straight to the fiber, once — system memory to fiber, as the VME
// boards do — into a pool-backed buffer the medium takes ownership of.
// The hardware loses nothing and retransmits nothing, so a message
// goes out only on credit: room in the peer's stream for it beside
// what is already on the fiber.
func (e *End) Write(p []byte) (int, error) {
	if e.peer.in.Reserve(len(p)) != nil {
		return 0, vfs.ErrHungup
	}
	msg := block.GetBytes(len(p))
	copy(msg, p)
	if err := e.wire.SendOwned(msg); err != nil {
		return 0, vfs.ErrHungup
	}
	return len(p), nil
}

// LocalAddr implements xport.Conn.
func (c *Conn) LocalAddr() string { return c.end.name + "/0" }

// RemoteAddr implements xport.Conn.
func (c *Conn) RemoteAddr() string { return c.end.name + "/1" }

// Status implements xport.Conn.
func (c *Conn) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return "Closed"
	case c.attached:
		return "Established"
	}
	return "Closed"
}

// Close implements xport.Conn. c.mu is released before e.mu is taken:
// Listen holds e.mu while polling isClosed (which needs c.mu), so
// nesting them here deadlocks a concurrent Listen+Close.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	e := c.end
	e.mu.Lock()
	if e.conn == c {
		e.conn = nil
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}
