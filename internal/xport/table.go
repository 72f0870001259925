package xport

import (
	"math/rand"
	"sync"

	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Ports hands out a protocol's ephemeral local ports. It counts the
// users of each local port — a listener and every call it accepted
// share one — so probing a candidate is one map lookup however many
// conversations exist.
type Ports struct {
	base, next uint16
	held       map[uint16]int
}

// NewPorts returns an allocator whose ephemeral range is [base, 65535].
func NewPorts(base uint16) Ports {
	return Ports{base: base, next: base, held: make(map[uint16]int)}
}

// Hold records one more user of port.
func (p *Ports) Hold(port uint16) { p.held[port]++ }

// Release drops one user of port.
func (p *Ports) Release(port uint16) {
	if p.held[port]--; p.held[port] <= 0 {
		delete(p.held, port)
	}
}

// Ephemeral returns the next unused port after the last it returned,
// wrapping to base past 65535; the caller Holds it. Callers are under
// their engine's lock, so the search must end: one sweep of the range
// finding nothing free is ErrInUse.
func (p *Ports) Ephemeral() (uint16, error) {
	for range 1<<16 - int(p.base) {
		p.next++
		if p.next < p.base {
			p.next = p.base
		}
		if p.held[p.next] == 0 {
			return p.next, nil
		}
	}
	return 0, ErrInUse
}

// AnnouncePort parses an announce address. "*" (no service) is port 0,
// which IL and TCP give to the listener for every service not
// explicitly announced (§5.2); an explicit port 0 is not an address.
func AnnouncePort(addr string) (uint16, error) {
	if addr == "*" || addr == "*!*" {
		return 0, nil
	}
	_, port, err := ip.ParseHostPort(addr)
	if err != nil || port == 0 {
		return 0, ErrBadAddress
	}
	return port, nil
}

// connKey names a conversation: the remote endpoint and the local port.
type connKey struct {
	raddr ip.Addr
	rport uint16
	lport uint16
}

// Table is one protocol's endpoint table on one machine. Its lock
// comes before any conversation's, never after.
type Table struct {
	Stack *ip.Stack
	Ck    vclock.Clock
	// RTTHist collects every round-trip sample the conversations take
	// (§3); the stats file renders it as a log2 histogram.
	RTTHist obs.Hist
	// Stats is the engine's stats file; the protocol adds its counters.
	Stats obs.Group

	states []string
	spawn  SpawnFunc

	mu        sync.Mutex
	conns     map[connKey]*Conv
	listeners map[uint16]*Conv
	ports     Ports
	rng       *rand.Rand
}

// SpawnFunc is the one thing the table cannot do for a protocol: build
// the passive end of a call that reached listener l, whose caller
// opened with sequence number peer. The protocol allocates its
// conversation, calls Conv.Passive with the same arguments, sets its
// own sequence state and starts its timer. It runs under the table
// lock; the table enters what it returns.
type SpawnFunc func(l *Conv, raddr ip.Addr, rport, lport uint16, peer uint32) *Conv

// Init readies the table. Locally chosen ports start above ephemBase;
// states names the protocol's conversation states, indexed by Conv.St.
func (t *Table) Init(stack *ip.Stack, ephemBase uint16, states []string, spawn SpawnFunc) {
	t.Stack, t.Ck = stack, stack.Clock()
	t.states, t.spawn = states, spawn
	t.conns = make(map[connKey]*Conv)
	t.listeners = make(map[uint16]*Conv)
	t.ports = NewPorts(ephemBase)
	t.rng = rand.New(rand.NewSource(t.Ck.Now().UnixNano()))
}

// StatsGroup exposes the engine counters; the netdev tree renders them
// into the protocol's stats file after the per-conversation lines.
func (t *Table) StatsGroup() *obs.Group { return &t.Stats }

// Clock exposes the stack clock so line disciplines pushed on the
// protocol's conversations time their flush windows in the same
// (possibly virtual) time domain as the protocol engine.
func (t *Table) Clock() vclock.Clock { return t.Ck }

// Demux finds the conversation for a packet from raddr!rport to local
// port lport. One that opens a call and matches no conversation goes to
// the listener announced on lport, or failing that to the announce-all
// listener on port 0 (§5.2): it accepts any service not explicitly
// announced. nil means nobody here wants the packet.
func (t *Table) Demux(raddr ip.Addr, rport, lport uint16, opens bool, peer uint32) *Conv {
	key := connKey{raddr: raddr, rport: rport, lport: lport}
	t.mu.Lock()
	c := t.conns[key]
	if c == nil && opens {
		l := t.listeners[lport]
		if l == nil {
			l = t.listeners[0]
		}
		if l != nil {
			c = t.spawn(l, raddr, rport, lport, peer)
			t.conns[key] = c
			t.ports.Hold(lport)
		}
	}
	t.mu.Unlock()
	return c
}

// Close tears the engine down at machine shutdown: every conversation
// dies at once — no close exchange, the machine is going away — and
// every listener stops accepting, so per-conversation timers and
// blocked readers, writers, and accepts all wake and exit. A
// conversation already dead keeps its first error.
func (t *Table) Close() {
	t.mu.Lock()
	all := make([]*Conv, 0, len(t.conns)+len(t.listeners))
	for _, c := range t.conns {
		all = append(all, c)
	}
	for _, l := range t.listeners {
		all = append(all, l)
	}
	t.conns = make(map[connKey]*Conv)
	t.listeners = make(map[uint16]*Conv)
	t.ports.held = make(map[uint16]int)
	t.mu.Unlock()
	for _, c := range all {
		c.Mu.Lock()
		if c.St == Listening {
			c.Accepted.Close()
		}
		if c.Err == nil {
			c.Err = vfs.ErrHungup
		}
		c.HangupLocked()
		c.Mu.Unlock()
	}
}
