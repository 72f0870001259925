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
	"sync"

	"repro/internal/block"
	"repro/internal/medium"
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
	l.a = &End{link: l, name: name, wire: da}
	l.b = &End{link: l, name: name, wire: db}
	return l
}

// Ends returns the two ends of the link.
func (l *Link) Ends() (*End, *End) { return l.a, l.b }

// Close tears the link down.
func (l *Link) Close() {
	l.a.wire.Close()
	l.b.wire.Close()
}

// End is one machine's VME card.
type End struct {
	link *Link
	name string
	wire *medium.Duplex

	mu       sync.Mutex
	cond     vclock.Cond
	condOnce sync.Once
	conn     *Conn // conversation currently owning the wire
}

func (e *End) init() {
	e.condOnce.Do(func() { e.cond.Init(e.wire.Clock(), &e.mu) })
}

var _ xport.Proto = (*End)(nil)

// Name implements xport.Proto: the device appears as "cyc" under /net.
func (e *End) Name() string { return "cyc" }

// NewConn implements xport.Proto. The link is point-to-point: one
// conversation at a time.
func (e *End) NewConn() (xport.Conn, error) {
	return &Conn{end: e}, nil
}

// Conn is the (single) conversation on a link end.
type Conn struct {
	end *End

	mu        sync.Mutex
	attached  bool
	announced bool
	closed    bool
	rest      []byte // message a short read left unfinished, pool-owned
	restOff   int    // how much of rest has been read
}

var _ xport.Conn = (*Conn)(nil)

// attach claims the link for this conversation. Lock order on a link
// is e.mu before c.mu (Listen polls isClosed while holding e.mu), so
// the wire is claimed first and the conversation marked after, never
// nesting the two the other way around.
func (c *Conn) attach() error {
	e := c.end
	e.mu.Lock()
	e.init()
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
	e.init()
	for e.conn != nil {
		if c.isClosed() {
			return nil, vfs.ErrHungup
		}
		e.cond.Wait()
	}
	nc := &Conn{end: e, attached: true}
	e.conn = nc
	return nc, nil
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Read implements xport.Conn: one framed message per read. A message
// longer than p is handed over in pieces — the remainder waits for the
// next Read — and a read never crosses a message boundary.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	ok := c.attached && !c.closed
	msg, off := c.rest, c.restOff
	if ok {
		c.rest = nil
	}
	c.mu.Unlock()
	if !ok {
		return 0, xport.ErrNotConnected
	}
	if msg == nil {
		var err error
		if msg, err = c.end.wire.Recv(); err != nil {
			return 0, vfs.ErrHungup
		}
		off = 0
	}
	n := copy(p, msg[off:])
	if off+n < len(msg) {
		c.mu.Lock()
		c.rest, c.restOff = msg, off+n
		c.mu.Unlock()
		return n, nil
	}
	// The wire hands over the buffer (the impairer copies per
	// delivery), so once it is copied out it goes back to the pool.
	block.PutBytes(msg)
	return n, nil
}

// Write implements xport.Conn: the boards copy straight to the fiber.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	ok := c.attached && !c.closed
	c.mu.Unlock()
	if !ok {
		return 0, xport.ErrNotConnected
	}
	// One copy — system memory to fiber, as the VME boards do — into a
	// pool-backed buffer the medium takes ownership of.
	msg := block.GetBytes(len(p))
	copy(msg, p)
	if err := c.end.wire.SendOwned(msg); err != nil {
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
	e.init()
	if e.conn == c {
		e.conn = nil
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}
