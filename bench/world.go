package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/exportfs"
	"repro/internal/medium"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/vclock"
)

// svcNdb is the service half of every benchmark world's database: the
// network entry and the ports core.PaperNdb declares for the services
// the workloads dial.
const svcNdb = `ipnet=mh-astro-net ip=135.104.0.0 ipmask=255.255.255.0
tcp=echo	port=7
tcp=9fs		port=564
tcp=bench	port=56990
il=echo		port=56552
il=9fs		port=17008
il=exportfs	port=17666
il=bench	port=56990
udp=dns		port=53
`

// host is one system entry of a generated database.
type host struct {
	name string
	ip   string // "" for a Datakit-only terminal
	dk   bool
}

// ndbFor writes the database for hosts after the service entries.
func ndbFor(hosts []host) string {
	var b strings.Builder
	b.WriteString(svcNdb)
	for _, h := range hosts {
		fmt.Fprintf(&b, "sys=%s\n", h.name)
		if h.ip != "" {
			fmt.Fprintf(&b, "\tip=%s\n", h.ip)
		}
		if h.dk {
			fmt.Fprintf(&b, "\tdk=nj/astro/%s\n", h.name)
		}
	}
	return b.String()
}

// mediaSpread is the share by which a seed may slow every medium, in
// propagation and in bit time alike. Payload bytes and file choice do
// not move a single-client workload's simulated time, so without this
// the three of them would report the same figures at every seed; 0.2 %
// keeps the spread across seeds well inside the bounds on the simulated
// metrics.
const mediaSpread = 0.002

// profiles returns the calibrated office media, or the WAN, slowed by
// the seed's share.
func profiles(seed int64, wan bool) core.PaperProfiles {
	p := core.CalibratedProfiles()
	if wan {
		p = core.WANProfiles()
	}
	slow := 1 + mediaSpread*rand.New(rand.NewSource(seed)).Float64()
	p.Ether.Latency = time.Duration(float64(p.Ether.Latency) * slow)
	p.Ether.Bandwidth = int64(float64(p.Ether.Bandwidth) / slow)
	for _, m := range []*medium.Profile{&p.Datakit, &p.Cyclone} {
		m.Latency = time.Duration(float64(m.Latency) * slow)
		m.Bandwidth = int64(float64(m.Bandwidth) / slow)
	}
	return p
}

// rig is one booted world plus the two ways of wiring 9P into it. An
// untraced rig mounts and serves through core's own entry points; a
// traced rig composes the same public pieces those entry points use,
// with the span wrappers in between.
type rig struct {
	ck vclock.Clock
	w  *core.World
	tr *tracer // nil when untraced

	// exports are the export servers whose books the rig can read:
	// every composed one, and an untraced machine's ServeExportfs.
	exports []*exportfs.Server

	mu     sync.Mutex
	live   map[*ninep.Client]bool
	closed mntBooks // the books of unmounted clients
}

// mntBooks are the mount-driver client figures /net/mnt/stats sums.
type mntBooks struct {
	rpcs, flushes, windowMax int64
}

func newRig(ck vclock.Clock, ndb string, tr *tracer) (*rig, error) {
	w, err := core.NewWorldClock(ndb, ck)
	if err != nil {
		return nil, err
	}
	return &rig{ck: ck, w: w, tr: tr, live: map[*ninep.Client]bool{}}, nil
}

// msgConn frames 9P on conn the way core does: TCP needs the §2.1
// marshaling adapter, every other network preserves delimiters.
func msgConn(conn *dialer.Conn) ninep.MsgConn {
	if strings.HasPrefix(conn.Dir, "/net/tcp/") {
		return ninep.NewStreamConn(conn)
	}
	return ninep.NewDelimConn(conn)
}

// serve announces addr on m and exports root ("" for the exportfs
// service, which exports "/" and takes the subtree from the attach).
func (r *rig) serve(m *core.Machine, addr, root string) error {
	if r.tr == nil {
		if root != "" {
			_, err := m.Serve9P(addr, root)
			return err
		}
		if _, err := m.ServeExportfs(addr); err != nil {
			return err
		}
		r.exports = append(r.exports, m.Exportfs())
		return nil
	}
	srv := exportfs.NewServer(m.NS, exportfs.Config{Root: root, Clock: r.ck})
	r.exports = append(r.exports, srv)
	_, err := m.Serve(addr, func(_ *ns.Namespace, conn *dialer.Conn) {
		srv.ServeConn(r.tr.server(msgConn(conn)))
	})
	return err
}

// traceTree puts the traced run's recorder between m's exports and the
// subtree at path, by mounting the wrapped subtree over itself. It costs
// a mount-table entry and no simulated time.
func (r *rig) traceTree(m *core.Machine, path string) error {
	if r.tr == nil {
		return nil
	}
	n, err := m.NS.Walk(path)
	if err != nil {
		return err
	}
	return m.NS.MountNode(r.tr.tree(n), path, ns.MREPL)
}

// mount dials dest from m and mounts the tree's rpath at old. shared
// marks a mount several processes use at once: ninep's delimConn holds
// a sync.Mutex across the paced transport write, so a second writer
// parks where the virtual clock cannot see it and the simulation
// deadlocks; a shared mount is therefore always composed, behind a
// clock-aware write lock (see README, gaps).
func (r *rig) mount(m *core.Machine, dest, rpath, old string, cfg mnt.Config, shared bool) (*ninep.Client, error) {
	var cl *ninep.Client
	var err error
	if r.tr == nil && !shared {
		cl, err = m.ImportConfig(dest, rpath, old, ns.MREPL, cfg)
	} else {
		cl, err = r.compose(m, dest, rpath, old, cfg, shared)
	}
	if err != nil {
		return nil, fmt.Errorf("mount %s on %s: %w", dest, m.Name, err)
	}
	r.mu.Lock()
	r.live[cl] = true
	r.mu.Unlock()
	return cl, nil
}

func (r *rig) compose(m *core.Machine, dest, rpath, old string, cfg mnt.Config, shared bool) (*ninep.Client, error) {
	cfg.Client.Clock = r.ck
	conn, err := dialer.Dial(m.NS, dest)
	if err != nil {
		return nil, err
	}
	mc := msgConn(conn)
	if shared {
		mc = newLockedConn(r.ck, mc)
	}
	if r.tr != nil {
		mc = r.tr.client(m, mc)
	}
	aname := strings.TrimPrefix(ns.Clean(rpath), "/")
	cl, err := exportfs.ImportConfig(m.NS, mc, aname, old, ns.MREPL, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cl, nil
}

// close unmounts what is still mounted and shuts the world down.
func (r *rig) close() {
	r.mu.Lock()
	live := make([]*ninep.Client, 0, len(r.live))
	for cl := range r.live {
		live = append(live, cl)
	}
	r.mu.Unlock()
	for _, cl := range live {
		r.unmount(cl)
	}
	r.w.Close()
}

// unmount closes a mount, keeping its books.
func (r *rig) unmount(cl *ninep.Client) {
	r.mu.Lock()
	delete(r.live, cl)
	r.closed.add(cl)
	r.mu.Unlock()
	cl.Close()
}

func (b *mntBooks) add(cl *ninep.Client) {
	b.rpcs += cl.RPCs.Load()
	b.flushes += cl.Flushes.Load()
	b.windowMax = max(b.windowMax, cl.WindowHW.Load())
}

// mounts returns the books of every mount the rig has made.
func (r *rig) mounts() mntBooks {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.closed
	for cl := range r.live {
		b.add(cl)
	}
	return b
}

// lockedConn serializes WriteMsg behind a lock whose waiters park on
// the clock.
type lockedConn struct {
	ninep.MsgConn
	mu   sync.Mutex
	free vclock.Cond
	held bool
}

func newLockedConn(ck vclock.Clock, c ninep.MsgConn) *lockedConn {
	l := &lockedConn{MsgConn: c}
	l.free.Init(ck, &l.mu)
	return l
}

func (l *lockedConn) WriteMsg(p []byte) error {
	l.mu.Lock()
	for l.held {
		l.free.Wait()
	}
	l.held = true
	l.mu.Unlock()
	err := l.MsgConn.WriteMsg(p)
	l.mu.Lock()
	l.held = false
	l.free.Signal()
	l.mu.Unlock()
	return err
}
