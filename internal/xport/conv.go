package xport

import (
	"sync"

	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// The states every call-oriented conversation passes through, whatever
// its protocol calls them. A protocol numbers its own states from
// NStates up, so the scaffold can follow a call without being told.
const (
	Closed      = iota
	Listening   // announced; Listen hands out its calls
	Connecting  // active open sent; Connect waits for the answer
	Established // handshake complete
	NStates
)

// Conv is what an IL and a TCP conversation have in common. The
// exported fields are for the protocol that embeds it; Mu guards all
// but the ones Init sets.
type Conv struct {
	Mu   sync.Mutex
	Cond vclock.Cond // signalled on every state or window change

	St  int    // Closed … Established, then the protocol's own
	Err error  // why the conversation died, once it has
	ISS uint32 // initial send sequence number, drawn at open
	RTT RTT

	// The endpoints, as the local and remote files show them.
	Laddr, Raddr ip.Addr
	Lport, Rport uint16

	// Self is the protocol's conversation, in which this one is
	// embedded: what Listen returns, and what the protocol's receive
	// path asserts back to its own type.
	Self Conn
	// Rq is the read queue: received data waiting for Read. The
	// protocol's receive path calls DeviceUp and HangupUp on it with Mu
	// held, and neither can park: nothing is ever pushed onto Rq, so its
	// module-list lock has no writer but Close's empty Pop, which holds
	// it across no park, and its 4 MiB limit is more than IL's window
	// (20 messages of at most 45 packets) or TCP's advertised window
	// lets a peer have in flight.
	Rq *streams.Stream
	// Accepted queues established calls for Listen; only a Listening
	// conversation's is used.
	Accepted *vclock.Mailbox[Conn]
	// Ring is the event ring, armed by writing "trace on" to the ctl
	// file; disabled it costs one atomic load per would-be event.
	Ring obs.Ring

	tab      *Table
	listener *Conv // passive end: whose Listen gets the call
	opened   bool  // active end: the handshake completed
}

var _ obs.Tracer = (*Conv)(nil)

// Init readies a fresh conversation of table t, embedded in self.
func (c *Conv) Init(t *Table, self Conn) {
	c.tab, c.Self = t, self
	c.Cond.Init(t.Ck, &c.Mu)
	c.RTT.Init(t.Ck, &t.RTTHist)
	c.Rq = streams.NewClock(1<<22, t.Ck, nil)
	c.Accepted = vclock.NewMailbox[Conn](t.Ck, 8)
}

// Trace implements obs.Tracer; the netdev tree serves it as the
// conversation's trace file.
func (c *Conv) Trace() *obs.Ring { return &c.Ring }

// BeginConnect is the front half of an active open: parse the
// destination, pick the local address and an ephemeral port, draw the
// initial sequence number, enter the table as Connecting. On success
// it returns with c.Mu held, so that the protocol sets its sequence
// state and sends its opening packet before a reply can be processed;
// the protocol then unlocks, starts its timer, and calls WaitOpen.
func (c *Conv) BeginConnect(addr string) error {
	a, port, err := ip.ParseHostPort(addr)
	if err != nil || a.IsZero() || port == 0 {
		return ErrBadAddress
	}
	t := c.tab
	local, err := t.Stack.LocalAddrFor(a)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Mu.Lock()
	if c.St != Closed {
		c.Mu.Unlock()
		return ErrConnected
	}
	lport, err := t.ports.Ephemeral()
	if err != nil {
		c.Mu.Unlock()
		return err
	}
	c.Laddr, c.Lport = local, lport
	c.Raddr, c.Rport = a, port
	c.ISS = t.rng.Uint32() & 0xffffff
	c.St = Connecting
	t.conns[connKey{raddr: a, rport: port, lport: lport}] = c
	t.ports.Hold(lport)
	return nil
}

// OpenedLocked is the protocol's report that the active open's
// handshake completed. The mark outlives the state: a peer that answers
// and hangs up at once can have the conversation Closed again before
// Connect's goroutine runs, and that call still succeeded.
func (c *Conv) OpenedLocked() {
	c.St, c.opened = Established, true
	c.Cond.Broadcast()
}

// WaitOpen is the back half: block until the handshake settles, as
// opening the data file does, and report how.
func (c *Conv) WaitOpen() error {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	for c.St == Connecting {
		c.Cond.Wait()
	}
	if !c.opened {
		if c.Err == nil {
			c.Err = vfs.ErrConnRef
		}
		c.Ring.Emit(obs.EvError, 0, 0)
		return c.Err
	}
	c.Ring.Emit(obs.EvConnect, 1, 0)
	return nil
}

// Passive fills in the passive end of a call to listener l. The
// protocol's SpawnFunc calls it, so the table lock is held.
func (c *Conv) Passive(l *Conv, raddr ip.Addr, rport, lport uint16) {
	c.Laddr, c.Lport = l.Laddr, lport
	c.Raddr, c.Rport = raddr, rport
	c.ISS = c.tab.rng.Uint32() & 0xffffff
	c.listener = l
}

// HandOffLocked marks a passive end Established and queues it for its
// listener's Listen. false means the listener is gone or its backlog
// full, and the protocol must refuse the call.
func (c *Conv) HandOffLocked() bool {
	c.St = Established
	c.Cond.Broadcast()
	c.Ring.Emit(obs.EvAccept, 0, 0)
	l := c.listener
	if l == nil {
		return true
	}
	c.listener = nil
	return l.Accepted.TrySend(c.Self)
}

// Announce implements Conn. The address "*" (no service) announces
// every service not explicitly announced, the inetd-less arrangement
// of §5.2: incoming calls to unannounced ports land on this listener,
// which learns the requested service from the new conversation's local
// address.
func (c *Conv) Announce(addr string) error {
	port, err := AnnouncePort(addr)
	if err != nil {
		return err
	}
	t := c.tab
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.St != Closed {
		return ErrConnected
	}
	if _, taken := t.listeners[port]; taken {
		return ErrInUse
	}
	c.Lport = port
	c.St = Listening
	t.listeners[port] = c
	t.ports.Hold(port)
	c.Ring.Emit(obs.EvAnnounce, int64(port), 0)
	return nil
}

// Listen implements Conn: block for the next established call.
func (c *Conv) Listen() (Conn, error) {
	c.Mu.Lock()
	listening := c.St == Listening
	c.Mu.Unlock()
	if !listening {
		return nil, ErrNotAnnounced
	}
	nc, ok := c.Accepted.Recv()
	if !ok {
		return nil, streams.ErrClosed
	}
	return nc, nil
}

// Read implements Conn from the read queue: one message per read where
// the protocol queues delimited blocks, a byte stream where not.
func (c *Conv) Read(p []byte) (int, error) { return c.Rq.Read(p) }

// HangupLocked is how every conversation ends: Closed, waiters woken,
// readers seeing the hangup once they have drained what arrived.
func (c *Conv) HangupLocked() {
	c.St = Closed
	c.Cond.Broadcast()
	c.Ring.Emit(obs.EvHangup, 0, 0)
	c.Rq.HangupUp() //netvet:ignore lock-across-send cannot park: Rq has no modules and a hangup is never flow-controlled (see Conv.Rq)
}

// Remove takes the conversation out of the table — only where it is
// still what the table holds: a dead conversation lingers past its
// close and removes itself again later, by when a successor may have
// its key. Callers must not hold Mu; the table's lock comes first.
func (c *Conv) Remove() {
	t := c.tab
	t.mu.Lock()
	key := connKey{raddr: c.Raddr, rport: c.Rport, lport: c.Lport}
	if t.conns[key] == c {
		delete(t.conns, key)
		t.ports.Release(c.Lport)
	}
	if t.listeners[c.Lport] == c {
		delete(t.listeners, c.Lport)
		t.ports.Release(c.Lport)
	}
	t.mu.Unlock()
}

// LocalAddr implements Conn.
func (c *Conv) LocalAddr() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return ip.HostPort(c.Laddr, c.Lport)
}

// RemoteAddr implements Conn.
func (c *Conv) RemoteAddr() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return ip.HostPort(c.Raddr, c.Rport)
}

// State returns the protocol's name for the conversation's state.
func (c *Conv) State() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.tab.states[c.St]
}
