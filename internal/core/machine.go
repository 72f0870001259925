package core

import (
	"fmt"
	"strings"

	"repro/internal/cs"
	"repro/internal/cyclone"
	"repro/internal/datakit"
	"repro/internal/devtree"
	"repro/internal/dnssrv"
	"repro/internal/ether"
	"repro/internal/exportfs"
	"repro/internal/il"
	"repro/internal/ip"
	"repro/internal/netdev"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/tcp"
	"repro/internal/uart"
	"repro/internal/udp"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// MachineConfig describes one machine to boot. The machine's
// addresses come from its database entry, so configuration matches
// administration, as the paper intends.
type MachineConfig struct {
	// Name is the machine's sys= name in the database.
	Name string
	// Ethers lists the segment names to attach, consuming the
	// entry's ip= addresses in order.
	Ethers []string
	// Datakit attaches the machine to the switch under its dk= name.
	Datakit bool
	// Forward makes the machine an IP gateway.
	Forward bool
	// ServeDNS, if non-nil, runs an authoritative server for the
	// zone on this machine's UDP port 53.
	ServeDNS *dnssrv.Zone
}

// Machine is one booted Plan 9 system: terminal, CPU server, or file
// server — they differ only in what they run, not in the kernel
// (§1).
type Machine struct {
	Name  string
	World *World

	// NS is the machine's prototype name space; processes Clone it.
	NS   *ns.Namespace
	Root *ramfs.FS

	Stack *ip.Stack
	IL    *il.Proto
	TCP   *tcp.Proto
	UDP   *udp.Proto
	DK    *datakit.Proto

	CS       *cs.Server
	Resolver *dnssrv.Resolver

	mu      vclock.Lock
	closers []closer
	mntGone mntBooks // what mounts since dropped from closers did
	nextCyc int
	uartDev *uart.Dev
	export  *exportfs.Server // shared gateway server, for /net/export/stats
}

// closer is one teardown hook. A mount's hook carries its client: the
// live mounts are the machine's mount table, for /net/mnt/stats.
type closer struct {
	f  func()
	cl *ninep.Client
}

// mntBooks sums mount-driver clients' RPC figures: mounts made, rpcs,
// flushes, the deepest in-flight window, the RPC latency histogram.
type mntBooks struct {
	mounts, rpcs, flushes, wmax int64
	hist                        obs.HistSnap
}

func (b *mntBooks) add(cl *ninep.Client) {
	b.mounts++
	b.rpcs += cl.RPCs.Load()
	b.flushes += cl.Flushes.Load()
	b.wmax = max(b.wmax, cl.WindowHW.Load())
	b.hist.Merge(cl.RPCHist.SnapshotHist())
}

// addMount books a new mount and its teardown. A machine that imports
// per operation would otherwise grow by one dead client per import, so
// mounts that have died since the last one leave the list here, their
// figures folded into mntGone: /net/mnt/stats reads as if every client
// were still held (bar an RPC tried on a mount after it has left, which
// fails at once without touching the wire). They are closed on the way
// out — a client can die of a transport error with its conversation
// still open — outside m.mu, since a hangup can park on the wire.
func (m *Machine) addMount(cl *ninep.Client) {
	var dead []*ninep.Client
	m.mu.Lock()
	live := m.closers[:0]
	for _, c := range m.closers {
		if c.cl != nil && c.cl.Dead() {
			m.mntGone.add(c.cl)
			dead = append(dead, c.cl)
		} else {
			live = append(live, c)
		}
	}
	clear(m.closers[len(live):])
	m.closers = append(live, closer{f: func() { cl.Close() }, cl: cl})
	m.mu.Unlock()
	for _, d := range dead {
		d.Close()
	}
}

// mntStats renders /net/mnt/stats: the RPC engine figures summed over
// every mount this machine has made (rpcs, flushes, the deepest
// in-flight window seen, and the merged RPC latency histogram). The
// mount driver's readahead and write-behind counters are process-wide
// (mnt.StatsGroup), so they are not this machine's to serve.
func (m *Machine) mntStats() string {
	var b strings.Builder
	m.mu.Lock()
	sum := m.mntGone
	for _, c := range m.closers {
		if c.cl != nil {
			sum.add(c.cl)
		}
	}
	m.mu.Unlock()
	fmt.Fprintf(&b, "mounts: %d\nrpcs: %d\nflushes: %d\nwindow-max: %d\n",
		sum.mounts, sum.rpcs, sum.flushes, sum.wmax)
	b.WriteString(sum.hist.Render("rpc"))
	return b.String()
}

// NewMachine boots a machine into the world.
func (w *World) NewMachine(cfg MachineConfig) (*Machine, error) {
	m := &Machine{Name: cfg.Name, World: w}
	m.mu.Init(w.Clock())
	m.Root = ramfs.NewTimed(cfg.Name, w.Clock())
	for _, d := range []string{"net", "tmp", "lib/ndb", "n", "srv", "dev", "bin"} {
		if err := m.Root.MkdirAll(d, 0775); err != nil {
			return nil, err
		}
	}
	if err := m.Root.WriteFile("lib/ndb/local", w.ndbText, 0664); err != nil {
		return nil, err
	}
	m.NS = ns.New(cfg.Name, m.Root.Root())

	// IP stack and Ethernet interfaces.
	m.Stack = ip.NewStack(w.clock)
	m.Stack.SetForwarding(cfg.Forward)
	if len(cfg.Ethers) > 0 {
		addrs, err := w.sysAddrs(cfg.Name)
		if err != nil {
			return nil, err
		}
		if len(addrs) < len(cfg.Ethers) {
			return nil, fmt.Errorf("core: %s has %d ip addresses for %d interfaces",
				cfg.Name, len(addrs), len(cfg.Ethers))
		}
		for i, segName := range cfg.Ethers {
			seg := w.Ether(segName)
			if seg == nil {
				return nil, fmt.Errorf("core: no segment %q", segName)
			}
			ifc := seg.NewInterface(fmt.Sprintf("ether%d", i))
			mask := w.maskFor(addrs[i])
			if _, err := m.Stack.Bind(ifc, addrs[i], mask); err != nil {
				return nil, err
			}
			dev := ether.NewDev(ifc, cfg.Name)
			point := fmt.Sprintf("/net/ether%d", i)
			m.Root.MkdirAll("net/ether"+fmt.Sprint(i), 0775)
			if err := m.NS.MountDevice(dev, "", point, ns.MREPL); err != nil {
				return nil, err
			}
		}
		// Gateway route from the database (the subnet's ipgw).
		if gw, ok := w.db.IPInfo(cfg.Name, "ipgw"); ok {
			if gwa, err := ip.ParseAddr(gw); err == nil && !m.Stack.IsLocal(gwa) {
				m.Stack.AddDefaultRoute(gwa)
			}
		}

		// Transport protocols, each a protocol device under /net.
		m.IL = il.New(m.Stack)
		m.TCP = tcp.New(m.Stack)
		m.UDP = udp.New(m.Stack)
		for _, p := range []struct {
			dev  vfs.Device
			name string
		}{
			{netdev.New(m.IL, cfg.Name), "il"},
			{netdev.New(m.TCP, cfg.Name), "tcp"},
			{netdev.New(m.UDP, cfg.Name), "udp"},
		} {
			m.Root.MkdirAll("net/"+p.name, 0775)
			if err := m.NS.MountDevice(p.dev, "", "/net/"+p.name, ns.MREPL); err != nil {
				return nil, err
			}
		}
	}

	// Datakit.
	if cfg.Datakit {
		w.mu.Lock()
		sw := w.dk
		w.mu.Unlock()
		if sw == nil {
			return nil, fmt.Errorf("core: world has no Datakit switch")
		}
		e, ok := w.db.QueryOne("sys", cfg.Name)
		if !ok {
			return nil, fmt.Errorf("core: %s not in database", cfg.Name)
		}
		dkName, ok := e.Get("dk")
		if !ok {
			return nil, fmt.Errorf("core: %s has no dk= address", cfg.Name)
		}
		host, err := sw.NewHost(dkName)
		if err != nil {
			return nil, err
		}
		m.DK = datakit.NewProto(host)
		m.Root.MkdirAll("net/dk", 0775)
		if err := m.NS.MountDevice(netdev.New(m.DK, cfg.Name), "", "/net/dk", ns.MREPL); err != nil {
			return nil, err
		}
	}

	// The IP stack's counters, in the ASCII style of the kernel's
	// status files.
	if len(cfg.Ethers) > 0 {
		m.Root.WriteFile("net/ipstats", nil, 0444)
		stats := devtree.TextFile(devtree.MkFile("ipstats", cfg.Name, 0444),
			func() (string, error) { return m.Stack.Stats(), nil })
		if err := m.NS.MountNode(stats, "/net/ipstats", ns.MREPL); err != nil {
			return nil, err
		}
	}

	// The mount driver's pipelining counters plus aggregated 9P RPC
	// figures, one stats file per machine, importable like the rest
	// of /net (§6.1).
	m.Root.MkdirAll("net/mnt", 0775)
	m.Root.WriteFile("net/mnt/stats", nil, 0444)
	mntStats := devtree.TextFile(devtree.MkFile("stats", cfg.Name, 0444),
		func() (string, error) { return m.mntStats(), nil })
	if err := m.NS.MountNode(mntStats, "/net/mnt/stats", ns.MREPL); err != nil {
		return nil, err
	}

	// DNS: resolver (and /net/dns) when the machine has IP; an
	// authoritative server when configured.
	if m.UDP != nil {
		w.mu.Lock()
		roots := append([]ip.Addr(nil), w.dnsRoots...)
		w.mu.Unlock()
		if len(roots) > 0 {
			m.Resolver = dnssrv.NewResolver(m.UDP, roots)
			m.Root.WriteFile("net/dns", nil, 0666)
			if err := m.NS.MountNode(dnssrv.Node(m.Resolver, cfg.Name), "/net/dns", ns.MREPL); err != nil {
				return nil, err
			}
		}
		if cfg.ServeDNS != nil {
			srv, err := dnssrv.Serve(m.UDP, cfg.ServeDNS)
			if err != nil {
				return nil, err
			}
			m.onClose(srv.Close)
		}
	}

	// The connection server.
	resolve := func(domain string) ([]ip.Addr, error) {
		if m.Resolver == nil {
			return nil, dnssrv.ErrNoAnswer
		}
		return m.Resolver.LookupA(domain)
	}
	// CS lists every network the machine could ever speak, in
	// preference order, and probes /net at query time: networks that
	// arrive later by import (§6.1) become dialable automatically.
	m.CS = cs.New(cs.Config{
		SysName: cfg.Name,
		DB:      w.db,
		Networks: []cs.Network{
			{Name: "il", Clone: "/net/il/clone", Kind: cs.KindIP},
			{Name: "tcp", Clone: "/net/tcp/clone", Kind: cs.KindIP},
			{Name: "udp", Clone: "/net/udp/clone", Kind: cs.KindIP},
			{Name: "dk", Clone: "/net/dk/clone", Kind: cs.KindDatakit},
		},
		Probe: func(clone string) bool {
			_, err := m.NS.Stat(clone)
			return err == nil
		},
		Resolve: resolve,
		Clock:   w.clock,
	})
	m.Root.MkdirAll("net/cs", 0775)
	if err := m.NS.MountNode(m.CS.Node(cfg.Name), "/net/cs", ns.MREPL); err != nil {
		return nil, err
	}

	w.mu.Lock()
	w.machines[cfg.Name] = m
	w.mu.Unlock()
	return m, nil
}

// AttachUART mounts a serial-line end as /dev/eia<n> and
// /dev/eia<n>ctl (§2.2) — the slow links that serve users at home.
func (m *Machine) AttachUART(n int, end *uart.End) error {
	m.mu.Lock()
	dev := m.uartDev
	if dev == nil {
		dev = uart.NewDev(m.Name, m.World.Clock())
		m.uartDev = dev
	}
	m.mu.Unlock()
	dev.Add(n, end)
	return m.NS.MountDevice(dev, "", "/dev", ns.MREPL)
}

// AttachCyclone mounts one end of a Cyclone link as /net/cyc<N>.
// Cyclone links carry 9P between file servers and CPU servers (§7).
func (m *Machine) AttachCyclone(end *cyclone.End) (string, error) {
	m.mu.Lock()
	n := m.nextCyc
	m.nextCyc++
	m.mu.Unlock()
	name := fmt.Sprintf("cyc%d", n)
	m.Root.MkdirAll("net/"+name, 0775)
	if err := m.NS.MountDevice(netdev.New(end, m.Name), "", "/net/"+name, ns.MREPL); err != nil {
		return "", err
	}
	return "/net/" + name, nil
}

// onClose registers a teardown hook.
func (m *Machine) onClose(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closers = append(m.closers, closer{f: f})
}

// Close shuts the machine down.
func (m *Machine) Close() {
	m.mu.Lock()
	closers := m.closers
	m.closers = nil
	m.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i].f()
	}
	// Kill the protocol engines before the stack: dying conversations
	// wake their timers and any reader still blocked in a service
	// handler, so machine teardown leaves no goroutine behind.
	if m.TCP != nil {
		m.TCP.Close()
	}
	if m.IL != nil {
		m.IL.Close()
	}
	if m.Stack != nil {
		m.Stack.Close()
	}
}

// LsNet formats the names visible in /net, the way the paper's
// transcripts show "ls /net" (§6.1) — duplicates preserved.
func (m *Machine) LsNet() []string {
	ents, err := m.NS.ReadDir("/net")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	return names
}

// NdbQuery runs a csquery-style translation on this machine.
func (m *Machine) NdbQuery(q string) ([]string, error) {
	fd, err := m.NS.Open("/net/cs/cs", vfs.ORDWR)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	if _, err := fd.WriteString(q); err != nil {
		return nil, err
	}
	var lines []string
	buf := make([]byte, 512)
	for {
		n, err := fd.ReadAt(buf, 0)
		if n == 0 || err != nil {
			return lines, nil
		}
		lines = append(lines, strings.TrimSpace(string(buf[:n])))
	}
}
