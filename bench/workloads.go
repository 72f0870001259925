package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/dnssrv"
	"repro/internal/ip"
	"repro/internal/mnt"
	"repro/internal/ns"
	"repro/internal/vfs"
)

// workload is one set of inputs. run executes inside Virtual.Run: it
// boots a world, times a window through env, verifies, and tears down.
type workload struct {
	name string
	why  string // why it exists and which layers it loads; BENCHMARK.json carries the same line
	size sizing // one round at full scale: at least 1000 ops, and about 1.8 s of host time on the reference box
	tiny sizing // the determinism test's scale
	// single marks a one-client workload, whose traced run carries the
	// per-op simulated-time budget.
	single bool
	wan    bool // on core.WANProfiles, not the calibrated office
	run    func(e *env) error
}

var workloads = []*workload{
	{
		name:   "lan-cat",
		why:    "one client cats 4 KiB files over IL on the office Ethernet through the serial mount: per-RPC round trips and per-packet cost dominate; windows and readahead are idle",
		size:   sizing{warm: 1000, ops: 4800},
		tiny:   sizing{warm: 4, ops: 40},
		single: true,
		run:    runLanCat,
	},
	{
		name:   "wan-read",
		why:    "one client reads 64 KiB sequentially over IL on the 100 Mb/s 5 ms WAN through the windowed mount: latency- and window-bound; mount window, readahead and IL send window do the work",
		size:   sizing{warm: 500, ops: 2000},
		tiny:   sizing{warm: 4, ops: 40},
		single: true,
		wan:    true,
		run:    runWanRead,
	},
	{
		name:   "lan-write-tcp",
		why:    "one client writes 64 KiB sequentially to tcp!bootes!9fs on the office Ethernet with write-behind: the write side of mnt/exportfs/ccache/ramfs, and TCP plus the marshaling adapter in place of IL",
		size:   sizing{warm: 320, ops: 1600},
		tiny:   sizing{warm: 4, ops: 40},
		single: true,
		run:    runLanWriteTCP,
	},
	{
		name: "gateway-relay",
		why:  "32 Datakit-only terminals import helix over URP and read 64 KiB files, one in eight relayed from bootes over IL: URP/Datakit, exportfs multi-tenancy, cache hit/miss/evict and connection set-up",
		size: sizing{lead: 4 * time.Second, window: 22 * time.Second, clients: 32},
		tiny: sizing{lead: 300 * time.Millisecond, window: 1500 * time.Millisecond, clients: 4},
		run:  runGatewayRelay,
	},
	{
		name: "dial-storm",
		why:  "192 clients on two networks dial 8 echo servers from a cold start, one Ethernet dial in eight through DNS: cs, ndb, dialer, netdev and call set-up; the transfer paths idle",
		size: sizing{window: 1500 * time.Millisecond, clients: 96},
		tiny: sizing{window: 300 * time.Millisecond, clients: 6},
		run:  runDialStorm,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	ipBootes = "135.104.9.2"
	ipHelix  = "135.104.9.31"
	fileSize = 64 << 10 // the 64 KiB transfer of the read, write and relay ops
	bigSize  = 1 << 20  // the file the sequential workloads walk through
)

// office boots bootes and helix on one Ethernet, the world of the three
// single-client workloads.
func office(e *env) (bootes, helix *core.Machine, err error) {
	r, err := newRig(e.ck, ndbFor([]host{{"bootes", ipBootes, false}, {"helix", ipHelix, false}}), e.tr)
	if err != nil {
		return nil, nil, err
	}
	e.rig = r
	r.w.AddEther("ether0", profiles(e.seed, e.wl.wan).Ether)
	if bootes, err = r.w.NewMachine(core.MachineConfig{Name: "bootes", Ethers: []string{"ether0"}}); err != nil {
		return nil, nil, err
	}
	if helix, err = r.w.NewMachine(core.MachineConfig{Name: "helix", Ethers: []string{"ether0"}}); err != nil {
		return nil, nil, err
	}
	if e.tr != nil {
		e.tr.enroll(helix, 0)
	}
	if err := bootes.Root.MkdirAll("data", 0775); err != nil {
		return nil, nil, err
	}
	return bootes, helix, nil
}

// seeded returns n bytes drawn from rng.
func seeded(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func runLanCat(e *env) error {
	bootes, helix, err := office(e)
	if err != nil {
		return err
	}
	defer e.rig.close()
	rng := rand.New(rand.NewSource(e.seed))
	const nfiles, size = 64, 4096
	files := make([][]byte, nfiles)
	for i := range files {
		files[i] = seeded(rng, size)
		if err := bootes.Root.WriteFile(fmt.Sprintf("data/f%02d", i), files[i], 0444); err != nil {
			return err
		}
	}
	if err := e.rig.traceTree(bootes, "/data"); err != nil {
		return err
	}
	if err := e.rig.serve(bootes, "il!*!exportfs", ""); err != nil {
		return err
	}
	if _, err := e.rig.mount(helix, "il!bootes!exportfs", "/", "/n/bootes", mnt.Config{}, false); err != nil {
		return err
	}
	e.res.OpBytes = size
	return e.runOps(func(int) error {
		i := rng.Intn(nfiles)
		got, err := helix.NS.ReadFile(fmt.Sprintf("/n/bootes/data/f%02d", i))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, files[i]) {
			return fmt.Errorf("f%02d: read %d bytes that differ from the %d written", i, len(got), size)
		}
		return nil
	})
}

func runWanRead(e *env) error {
	bootes, helix, err := office(e)
	if err != nil {
		return err
	}
	defer e.rig.close()
	big := seeded(rand.New(rand.NewSource(e.seed)), bigSize)
	if err := bootes.Root.WriteFile("data/big", big, 0444); err != nil {
		return err
	}
	if err := e.rig.traceTree(bootes, "/data"); err != nil {
		return err
	}
	if err := e.rig.serve(bootes, "il!*!exportfs", ""); err != nil {
		return err
	}
	if _, err := e.rig.mount(helix, "il!bootes!exportfs", "/", "/n/bootes", mnt.FileConfig(), false); err != nil {
		return err
	}
	fd, err := helix.NS.Open("/n/bootes/data/big", vfs.OREAD)
	if err != nil {
		return err
	}
	defer fd.Close()
	e.res.OpBytes = fileSize
	buf := make([]byte, fileSize)
	off := int64(0)
	return e.runOps(func(int) error {
		n, err := fd.ReadAt(buf, off)
		if err != nil {
			return err
		}
		if n != fileSize || !bytes.Equal(buf, big[off:off+fileSize]) {
			return fmt.Errorf("big at %d: read %d bytes that differ from the file", off, n)
		}
		off = (off + fileSize) % bigSize
		return nil
	})
}

// tcpWindow is lan-write-tcp's write-behind depth. TCP here is
// go-back-N with a 20 ms retransmission floor and no congestion
// control, and on the shared 10 Mb/s segment its acknowledgements queue
// behind the data: at mnt's default window of 8 fragments (64 KiB, 52 ms
// of wire) every timer tick resends the whole window and the transfer
// never recovers — window 4 did not finish 200 ops in a minute. Two
// fragments keep the acknowledgement 13 ms behind at worst, so the
// baseline runs without one retransmission.
const tcpWindow = 2

func runLanWriteTCP(e *env) error {
	cfg := mnt.FileConfig()
	cfg.Client.Window = tcpWindow
	bootes, helix, err := office(e)
	if err != nil {
		return err
	}
	defer e.rig.close()
	rng := rand.New(rand.NewSource(e.seed))
	// Two payloads, alternating by pass through the file, so that a
	// write lost on one pass cannot hide behind the pass before it.
	passes := [2][]byte{seeded(rng, bigSize), seeded(rng, bigSize)}
	want := make([]byte, bigSize)
	if err := bootes.Root.WriteFile("data/out", want, 0664); err != nil {
		return err
	}
	if err := e.rig.traceTree(bootes, "/data"); err != nil {
		return err
	}
	if err := e.rig.serve(bootes, "tcp!*!9fs", "/"); err != nil {
		return err
	}
	if _, err := e.rig.mount(helix, "tcp!bootes!9fs", "/", "/n/bootes", cfg, false); err != nil {
		return err
	}
	fd, err := helix.NS.Open("/n/bootes/data/out", vfs.OWRITE)
	if err != nil {
		return err
	}
	e.res.OpBytes = fileSize
	last := e.size.warm + e.size.ops - 1
	err = e.runOps(func(i int) error {
		off := int64(i) * fileSize % bigSize
		data := passes[i*fileSize/bigSize%2][off : off+fileSize]
		copy(want[off:], data)
		if n, err := fd.WriteAt(data, off); err != nil || n != fileSize {
			return fmt.Errorf("out at %d: wrote %d: %v", off, n, err)
		}
		if i < last {
			return nil
		}
		// The barrier: the last op closes the file, which drains the
		// write-behind, and then the file server's own copy is the
		// judge of every write before it.
		if err := fd.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		got, err := bootes.Root.ReadFile("data/out")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("out: bootes holds other bytes than were written")
		}
		return nil
	})
	fd.Close()
	return err
}

const (
	privatePer  = 4 // private files per tenant: 32 × 4 × 64 KiB = 8 MiB, twice ccache.DefaultMaxBytes
	relayOneIn  = 8 // one read in eight is of a private file
	echoServers = 8
	dnsOneIn    = 8 // one Ethernet dial in eight names the server by domain
	echoBytes   = 64
)

// runGatewayRelay is §6.1 with many tenants. helix serves dk!*!exportfs
// and holds one shared file of its own; bootes' private files are bound
// into the served directory from helix's IL mount of bootes. helix's
// cache can hold only its own file — a mount driver handle is not
// vfs.Stable — so a shared read costs the tenant's Datakit line alone and
// a private read also crosses the Ethernet to bootes, whose cache the
// 8 MiB private set overflows. One read in eight is private: at one in
// four the 32 tenants saturate the 10 Mb/s Ethernet and the workload
// measures nothing else.
func runGatewayRelay(e *env) error {
	tenants := e.size.clients
	hosts := []host{{"bootes", ipBootes, false}, {"helix", ipHelix, true}}
	for i := 0; i < tenants; i++ {
		hosts = append(hosts, host{fmt.Sprintf("t%02d", i), "", true})
	}
	r, err := newRig(e.ck, ndbFor(hosts), e.tr)
	if err != nil {
		return err
	}
	e.rig = r
	defer r.close()
	prof := profiles(e.seed, false)
	r.w.AddEther("ether0", prof.Ether)
	r.w.AddDatakit(prof.Datakit)
	bootes, err := r.w.NewMachine(core.MachineConfig{Name: "bootes", Ethers: []string{"ether0"}})
	if err != nil {
		return err
	}
	helix, err := r.w.NewMachine(core.MachineConfig{Name: "helix", Ethers: []string{"ether0"}, Datakit: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	shared := seeded(rng, fileSize)
	if err := helix.Root.MkdirAll("lib/bench/priv", 0775); err != nil {
		return err
	}
	if err := helix.Root.WriteFile("lib/bench/shared", shared, 0444); err != nil {
		return err
	}
	if err := bootes.Root.MkdirAll("lib/bench", 0775); err != nil {
		return err
	}
	private := make([][]byte, tenants*privatePer)
	for i := range private {
		private[i] = seeded(rng, fileSize)
		if err := bootes.Root.WriteFile(fmt.Sprintf("lib/bench/p%03d", i), private[i], 0444); err != nil {
			return err
		}
	}
	if err := r.serve(bootes, "il!*!exportfs", ""); err != nil {
		return err
	}
	// helix's own mount of bootes is the serial driver: with readahead
	// on, mnt holds a handle's sync.Mutex across the RPC, and a second
	// request on that fid deadlocks the virtual clock (README, gaps).
	if _, err := r.mount(helix, "il!bootes!exportfs", "/", "/n/bootes", mnt.Config{}, true); err != nil {
		return err
	}
	if err := helix.NS.Bind("/n/bootes/lib/bench", "/lib/bench/priv", ns.MREPL); err != nil {
		return err
	}
	// What helix serves the tenants: its own file and, through the
	// bind, the IL hop to bootes.
	for _, tree := range []string{"/lib/bench", "/lib/bench/priv"} {
		if err := r.traceTree(helix, tree); err != nil {
			return err
		}
	}
	if err := r.serve(helix, "dk!*!exportfs", ""); err != nil {
		return err
	}
	terms := make([]*core.Machine, tenants)
	for i := range terms {
		if terms[i], err = r.w.NewMachine(core.MachineConfig{Name: hosts[2+i].name, Datakit: true}); err != nil {
			return err
		}
		if e.tr != nil {
			e.tr.enroll(terms[i], i)
		}
	}
	e.res.OpBytes = fileSize
	e.runClients(tenants, func(id int, running func() bool) {
		m := terms[id]
		rng := rand.New(rand.NewSource(e.seed + int64(id+1)*7919))
		e.ck.Sleep(time.Duration(rng.Int63n(int64(200 * time.Millisecond))))
		// Every eighth op, from a seeded first, so that the share of
		// private reads is the same at every seed.
		phase := rng.Intn(relayOneIn)
		for op := 0; running(); op++ {
			name, want := "shared", shared
			if (op+phase)%relayOneIn == 0 {
				f := id*privatePer + rng.Intn(privatePer)
				name, want = fmt.Sprintf("priv/p%03d", f), private[f]
			}
			a := e.tr.beginOp(id, op)
			start := e.ck.Now()
			err := func() error {
				cl, err := r.mount(m, "net!helix!exportfs", "/lib/bench", "/n/gw", mnt.FileConfig(), false)
				if err != nil {
					return err
				}
				// Unmount by hand: nothing runs finalizers on the
				// virtual clock, and a leaked import pins one of
				// helix's conversations.
				defer r.unmount(cl)
				got, err := m.NS.ReadFile("/n/gw/" + name)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("%s: read %d bytes that differ from the file", name, len(got))
				}
				return nil
			}()
			e.record(id, start, err)
			e.tr.endOp(id, a)
			if err != nil {
				e.ck.Sleep(10 * time.Millisecond)
			}
		}
	})
	return nil
}

// runDialStorm is the power-cut dial storm: nothing is warmed, every
// machine's connection server starts empty, and the window opens at the
// first dial.
func runDialStorm(e *env) error {
	const zone = "research.bell-labs.com"
	stormClients := e.size.clients // on each network
	hosts := []host{{"a-root", "135.104.9.1", false}}
	for i := 0; i < echoServers; i++ {
		hosts = append(hosts, host{fmt.Sprintf("s%d", i), fmt.Sprintf("135.104.9.%d", 10+i), true})
	}
	for i := 0; i < stormClients; i++ {
		hosts = append(hosts, host{fmt.Sprintf("e%02d", i), fmt.Sprintf("135.104.9.%d", 100+i), false})
	}
	for i := 0; i < stormClients; i++ {
		hosts = append(hosts, host{fmt.Sprintf("d%02d", i), "", true})
	}
	r, err := newRig(e.ck, ndbFor(hosts), e.tr)
	if err != nil {
		return err
	}
	e.rig = r
	defer r.close()
	prof := profiles(e.seed, false)
	r.w.AddEther("ether0", prof.Ether)
	r.w.AddDatakit(prof.Datakit)
	r.w.SetDNSRoots(ip.Addr{135, 104, 9, 1})

	// DNS knows each server by a name the database does not, so that
	// dialing it walks CS → dnssrv → udp: the root delegates the zone
	// to s0.
	rootZone := dnssrv.NewZone("")
	rootZone.Delegate(zone, "s0."+zone, "135.104.9.10")
	echoZone := dnssrv.NewZone(zone)
	for i := 0; i < echoServers; i++ {
		echoZone.AddA(fmt.Sprintf("echo%d.%s", i, zone), fmt.Sprintf("135.104.9.%d", 10+i))
	}
	var clients []*core.Machine
	for i, h := range hosts {
		cfg := core.MachineConfig{Name: h.name, Datakit: h.dk}
		if h.ip != "" {
			cfg.Ethers = []string{"ether0"}
		}
		switch h.name {
		case "a-root":
			cfg.ServeDNS = rootZone
		case "s0":
			cfg.ServeDNS = echoZone
		}
		m, err := r.w.NewMachine(cfg)
		if err != nil {
			return err
		}
		switch {
		case i == 0:
		case i <= echoServers:
			for _, addr := range []string{"il!*!echo", "tcp!*!echo", "dk!*!echo"} {
				if _, err := m.ServeEcho(addr); err != nil {
					return err
				}
			}
		default:
			clients = append(clients, m)
		}
	}
	e.res.OpBytes = echoBytes
	e.runClients(len(clients), func(id int, running func() bool) {
		m := clients[id]
		rng := rand.New(rand.NewSource(e.seed + int64(id+1)*7919))
		e.ck.Sleep(time.Duration(rng.Int63n(int64(100 * time.Millisecond))))
		msg, got := make([]byte, echoBytes), make([]byte, echoBytes)
		// Servers in rotation from a seeded first, and every eighth
		// dial by domain, stepping the rotation so that those reach
		// every server too: each seed pays the same misses.
		first, phase := rng.Intn(echoServers), rng.Intn(dnsOneIn)
		for op := 0; running(); op++ {
			rng.Read(msg)
			s := (first + op + op/dnsOneIn) % echoServers
			dest := fmt.Sprintf("net!s%d!echo", s)
			if id < stormClients && (op+phase)%dnsOneIn == 0 {
				dest = fmt.Sprintf("net!echo%d.%s!echo", s, zone)
			}
			a := e.tr.beginOp(id, op)
			start := e.ck.Now()
			e.record(id, start, echoOnce(e.tr, id, m, dest, msg, got))
			e.tr.endOp(id, a)
			e.ck.Sleep(50*time.Millisecond + time.Duration(rng.Int63n(int64(100*time.Millisecond))))
		}
	})
	return nil
}

// echoOnce is the dial-storm op: dial, write, read the echo back byte
// for byte, hang up.
func echoOnce(tr *tracer, id int, m *core.Machine, dest string, msg, got []byte) error {
	var conn *dialer.Conn
	var err error
	tr.timed(spanDial, id, dest, func() { conn, err = dialer.Dial(m.NS, dest) })
	if err != nil {
		return fmt.Errorf("dial %s: %w", dest, err)
	}
	_, err = conn.Write(msg)
	for n := 0; err == nil && n < len(got); {
		var k int
		k, err = conn.Read(got[n:])
		n += k
	}
	tr.timed(spanHangup, id, dest, func() { conn.Close() })
	if err != nil {
		return fmt.Errorf("echo via %s: %w", dest, err)
	}
	if !bytes.Equal(got, msg) {
		return fmt.Errorf("echo via %s: came back changed", dest)
	}
	return nil
}
