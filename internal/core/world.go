// Package core assembles whole Plan 9 networks out of the substrate
// packages: a World holds the shared media (Ethernet segments, the
// Datakit switch, Cyclone links) and the network database; Machines
// boot with a per-process name space, kernel devices mounted under
// /net, protocol stacks, a connection server, and DNS — the complete
// organization the paper describes, in one process.
package core

import (
	"fmt"

	"repro/internal/datakit"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/ndb"
	"repro/internal/vclock"
)

// World is a universe of machines and media.
type World struct {
	clock    vclock.Clock
	mu       vclock.Lock
	ethers   map[string]*ether.Segment
	dk       *datakit.Switch
	db       *ndb.DB
	ndbText  []byte
	machines map[string]*Machine
	dnsRoots []ip.Addr
	closers  []func()
}

// NewWorld creates an empty world on the real clock with the given
// database text (the shared /lib/ndb/local every machine reads).
func NewWorld(ndbText string) (*World, error) {
	return NewWorldClock(ndbText, vclock.Real)
}

// NewWorldClock is NewWorld on ck: every medium the world creates and
// every machine booted into it inherits ck, so a discrete-event clock
// simulates the whole network.
func NewWorldClock(ndbText string, ck vclock.Clock) (*World, error) {
	db, err := ndb.ParseDB(map[string][]byte{"local": []byte(ndbText)}, "local")
	if err != nil {
		return nil, err
	}
	db.HashAll("sys", "dom", "ip", "dk", "tcp", "il", "udp", "ipnet")
	w := &World{
		clock:    ck,
		ethers:   make(map[string]*ether.Segment),
		db:       db,
		ndbText:  []byte(ndbText),
		machines: make(map[string]*Machine),
	}
	w.mu.Init(ck)
	return w, nil
}

// Clock returns the world's clock.
func (w *World) Clock() vclock.Clock { return w.clock }

// DB returns the world's database.
func (w *World) DB() *ndb.DB { return w.db }

// AddEther creates a broadcast segment with the given medium profile.
// The segment runs on the world's clock unless the profile names one.
func (w *World) AddEther(name string, p ether.Profile) *ether.Segment {
	w.mu.Lock()
	defer w.mu.Unlock()
	if p.Clock == nil {
		p.Clock = w.clock
	}
	seg := ether.NewSegment(name, p)
	w.ethers[name] = seg
	return seg
}

// Ether returns a named segment.
func (w *World) Ether(name string) *ether.Segment {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ethers[name]
}

// AddDatakit creates the Datakit switch with the given circuit
// profile, on the world's clock unless the profile names one.
func (w *World) AddDatakit(p medium.Profile) *datakit.Switch {
	w.mu.Lock()
	defer w.mu.Unlock()
	if p.Clock == nil {
		p.Clock = w.clock
	}
	w.dk = datakit.NewSwitch(p)
	return w.dk
}

// SetDNSRoots records the root name servers machines resolve from.
func (w *World) SetDNSRoots(roots ...ip.Addr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dnsRoots = roots
}

// Machine returns a booted machine by name.
func (w *World) Machine(name string) *Machine {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.machines[name]
}

// Machines lists all machines.
func (w *World) Machines() []*Machine {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ms []*Machine
	for _, m := range w.machines {
		ms = append(ms, m)
	}
	return ms
}

// OnClose registers a teardown hook.
func (w *World) OnClose(f func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closers = append(w.closers, f)
}

// Close shuts the world down: machines, then media.
func (w *World) Close() {
	w.mu.Lock()
	machines := w.machines
	w.machines = map[string]*Machine{}
	ethers := w.ethers
	w.ethers = map[string]*ether.Segment{}
	dk := w.dk
	w.dk = nil
	closers := w.closers
	w.closers = nil
	w.mu.Unlock()
	for _, m := range machines {
		m.Close()
	}
	for _, f := range closers {
		f()
	}
	for _, seg := range ethers {
		seg.Close()
	}
	if dk != nil {
		dk.Close()
	}
}

// sysAddrs returns the ip= addresses of a system entry, in order.
func (w *World) sysAddrs(name string) ([]ip.Addr, error) {
	e, ok := w.db.QueryOne("sys", name)
	if !ok {
		return nil, fmt.Errorf("core: system %q not in the database", name)
	}
	var addrs []ip.Addr
	for _, v := range e.GetAll("ip") {
		a, err := ip.ParseAddr(v)
		if err != nil {
			return nil, fmt.Errorf("core: system %q has bad ip %q", name, v)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// maskFor derives the netmask for an address from the database: the
// network entry's ipmask if declared, else the classful mask.
func (w *World) maskFor(a ip.Addr) ip.Addr {
	nets := w.db.NetsContaining(a)
	if len(nets) > 0 {
		// Use the mask of the most specific net (the subnet).
		return nets[0].Mask
	}
	return ip.ClassMask(a)
}
