package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/cyclone"
	"repro/internal/dialer"
	"repro/internal/medium"
	"repro/internal/ndb"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/streams"
	"repro/internal/table1"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// A probe calls one layer's public functions in a short loop of its
// own and reports the unit cost: host nanoseconds and allocations per
// call on the real clock, or simulated time on a virtual one. Unit cost
// times the layer's [stat] count is the layer's estimated share of a
// workload's host_us_per_op (the host budget).

// probeSlice is the host time one timing repetition of a probe fills.
const probeSlice = 20 * time.Millisecond

// perCall returns f's median host nanoseconds per call over five
// repetitions, and its allocations per call.
func perCall(f func()) (ns, allocs float64) {
	runtime.GC()
	n := 1
	for {
		t0 := time.Now() //netvet:ignore realtime host cost of a probe loop
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= probeSlice { //netvet:ignore realtime host cost of a probe loop
			break
		}
		n *= 2
	}
	var m0, m1 runtime.MemStats
	reps := make([]float64, 5)
	runtime.ReadMemStats(&m0)
	for r := range reps {
		t0 := time.Now() //netvet:ignore realtime host cost of a probe loop
		for i := 0; i < n; i++ {
			f()
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(n) //netvet:ignore realtime host cost of a probe loop
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(reps)
	return reps[len(reps)/2], float64(m1.Mallocs-m0.Mallocs) / float64(len(reps)*n)
}

// runProbes runs every probe and returns the [probe] metrics.
func runProbes(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	for _, p := range []func(map[string]float64) error{
		probeNS, probeCodec, probeCache, probeStreams, probeMedium, probeNaming, probeClock,
	} {
		if err := p(m); err != nil {
			return nil, err
		}
	}
	var err error
	v := vclock.NewVirtual()
	v.Run(func() { err = probeTable1(v, seed, m) })
	return m, err
}

func probeNS(m map[string]float64) error {
	root, sub := ramfs.New("probe"), ramfs.New("probe")
	if err := root.MkdirAll("n/x", 0775); err != nil {
		return err
	}
	if err := sub.WriteFile("f", []byte("x"), 0444); err != nil {
		return err
	}
	nsp := ns.New("probe", root.Root())
	if err := nsp.MountNode(sub.Root(), "/n/x", ns.MREPL); err != nil {
		return err
	}
	defer nsp.Unmount("/n/x")
	var err error
	m["ns.resolve_ns"], _ = perCall(func() { _, err = nsp.Stat("/n/x/f") })
	return err
}

func probeCodec(m map[string]float64) error {
	data := make([]byte, ninep.MaxFData)
	msgs := []*ninep.Fcall{
		{Type: ninep.Twalk, Tag: 1, Fid: 2, Name: "lib"},
		{Type: ninep.Rwalk, Tag: 1, Fid: 2, Qid: vfs.Qid{Path: 7}},
		{Type: ninep.Tread, Tag: 1, Fid: 2, Offset: 8192, Count: ninep.MaxFData},
		{Type: ninep.Rread, Tag: 1, Fid: 2, Count: ninep.MaxFData, Data: data},
	}
	var err error
	ns, allocs := perCall(func() {
		for _, f := range msgs {
			p, e := ninep.MarshalFcall(f)
			if e == nil {
				_, e = ninep.UnmarshalFcall(p)
				block.PutBytes(p)
			}
			if e != nil {
				err = e
			}
		}
	})
	m["ninep.codec_ns_per_msg"] = ns / float64(len(msgs))
	m["ninep.codec_allocs_per_msg"] = allocs / float64(len(msgs))
	if err != nil {
		return err
	}

	// The §2.1 marshaling adapter, fed the Twrite lan-write-tcp sends.
	tmpl, err := ninep.MarshalFcall(&ninep.Fcall{Type: ninep.Twrite, Tag: 1, Fid: 2, Count: ninep.MaxFData, Data: data})
	if err != nil {
		return err
	}
	sc := ninep.NewStreamConn(&loopback{})
	defer sc.Close()
	m["ninep.stream_adapter_ns_per_msg"], _ = perCall(func() {
		p := block.GetBytes(len(tmpl))
		copy(p, tmpl)
		if e := sc.WriteMsg(p); e != nil {
			err = e
			return
		}
		got, e := sc.ReadMsg()
		if e != nil {
			err = e
			return
		}
		block.PutBytes(got)
	})
	return err
}

// loopback is a byte stream that reads back what was written to it.
type loopback struct{ bytes.Buffer }

func (*loopback) Close() error { return nil }

func probeCache(m map[string]float64) error {
	const big = 2 * ccache.DefaultMaxBytes
	fs := ramfs.New("probe")
	if err := fs.WriteFile("big", make([]byte, big), 0664); err != nil {
		return err
	}
	file, err := fs.Root().Walk("big")
	if err != nil {
		return err
	}
	raw, err := file.Open(vfs.ORDWR)
	if err != nil {
		return err
	}
	defer raw.Close()
	buf := make([]byte, ninep.MaxFData)
	m["ramfs.read_ns_per_8k"], _ = perCall(func() { _, err = raw.Read(buf, 0) })
	m["ramfs.write_ns_per_8k"], _ = perCall(func() { _, err = raw.Write(buf, 0) })
	if err != nil {
		return err
	}

	// The 9P server reads a cached file a fragment at a time through
	// ReadBlock. Walking a file twice the cache's size in order makes
	// every fragment a miss with an eviction.
	cache := ccache.New(ccache.Config{FragSize: ninep.MaxFData})
	h, err := cache.WrapNode(file).Open(vfs.OREAD)
	if err != nil {
		return err
	}
	defer h.Close()
	br, ok := h.(interface {
		ReadBlock(count int, off int64) (*block.Block, []byte, error)
	})
	if !ok {
		return fmt.Errorf("ccache probe: a cached ramfs file does not serve ReadBlock")
	}
	off := int64(0)
	frag := func() {
		b, _, e := br.ReadBlock(ninep.MaxFData, off)
		if e != nil || b == nil {
			err = fmt.Errorf("ccache probe: ReadBlock at %d: %v", off, e)
			return
		}
		b.Free()
	}
	m["ccache.hit_ns_per_frag"], _ = perCall(frag)
	m["ccache.miss_ns_per_frag"], _ = perCall(func() {
		frag()
		off = (off + ninep.MaxFData) % big
	})
	return err
}

func probeStreams(m map[string]float64) error {
	s := streams.New(0, func(b *streams.Block) { b.Free() })
	defer s.Close()
	msg := make([]byte, 64)
	var err error
	m["streams.put_ns_per_block"], _ = perCall(func() { _, err = s.Write(msg) })
	if err != nil {
		return err
	}

	// Table 1's first row: two processes joined by a kernel pipe, on the
	// real clock because nothing in it is simulated.
	w, paths, err := table1.BuildWorld(table1.FastConfig())
	if err != nil {
		return err
	}
	defer w.Close()
	pipes := paths[0]
	lat, err := table1.MeasureLatency(pipes, 20000)
	if err != nil {
		return err
	}
	thr, err := table1.MeasureThroughput(pipes, 16<<10, 64<<20)
	if err != nil {
		return err
	}
	m["streams.table1_pipe_lat_host_us"] = float64(lat.Nanoseconds()) / 1e3
	m["streams.table1_pipe_thr_host_mbps"] = thr
	return nil
}

func probeMedium(m map[string]float64) error {
	p := medium.NewPipe(medium.Profile{})
	defer p.Close()
	msg := make([]byte, 1024)
	var err error
	m["medium.pipe_ns_per_msg"], _ = perCall(func() {
		if err = p.Send(msg); err == nil {
			_, err = p.Recv()
		}
	})
	return err
}

// probeNaming covers the layers a dial crosses before the first packet:
// the database, the connection server, and the protocol device's clone
// file.
func probeNaming(m map[string]float64) error {
	const systems = 4096
	hosts := []host{{"helix", ipHelix, true}}
	for i := 0; i < systems; i++ {
		hosts = append(hosts, host{fmt.Sprintf("x%04d", i), fmt.Sprintf("135.104.%d.%d", 16+i/250, 1+i%250), false})
	}
	text := ndbFor(hosts)
	db, err := ndb.ParseDB(map[string][]byte{"local": []byte(text)}, "local")
	if err != nil {
		return err
	}
	db.HashAll("sys", "dom", "ip", "dk", "tcp", "il", "udp", "ipnet")
	i := 0
	m["ndb.lookup_hashed_ns"], _ = perCall(func() {
		if _, ok := db.QueryOne("sys", hosts[1+i%systems].name); !ok {
			err = fmt.Errorf("ndb probe: %s not found", hosts[1+i%systems].name)
		}
		i++
	})
	if err != nil {
		return err
	}

	newCS := func() *cs.Server {
		return cs.New(cs.Config{SysName: "helix", DB: db, Networks: []cs.Network{
			{Name: "il", Clone: "/net/il/clone", Kind: cs.KindIP},
			{Name: "tcp", Clone: "/net/tcp/clone", Kind: cs.KindIP},
			{Name: "dk", Clone: "/net/dk/clone", Kind: cs.KindDatakit},
		}})
	}
	hot := newCS()
	m["cs.translate_hot_ns"], _ = perCall(func() { _, err = hot.Translate("net!x0007!echo") })
	if err != nil {
		return err
	}
	// A miss is a name a fresh server has not seen: three servers, each
	// asked every system once.
	misses := make([]float64, 3)
	queries := make([]string, systems)
	for i := range queries {
		queries[i] = "net!" + hosts[1+i].name + "!echo"
	}
	for r := range misses {
		cold := newCS()
		t0 := time.Now() //netvet:ignore realtime host cost of a probe loop
		for _, q := range queries {
			if _, e := cold.Translate(q); e != nil {
				err = e
			}
		}
		misses[r] = float64(time.Since(t0).Nanoseconds()) / systems //netvet:ignore realtime host cost of a probe loop
	}
	sort.Float64s(misses)
	m["cs.translate_miss_ns"] = misses[1]
	if err != nil {
		return err
	}

	// The clone dance of §2.3 without the connect: open clone, which
	// allocates a conversation, read its number, close.
	w, err := core.NewWorld(ndbFor(hosts[:1]))
	if err != nil {
		return err
	}
	defer w.Close()
	w.AddEther("ether0", core.FastProfiles().Ether)
	helix, err := w.NewMachine(core.MachineConfig{Name: "helix", Ethers: []string{"ether0"}}) //netvet:ignore unclosed-resource the world closes its machines
	if err != nil {
		return err
	}
	buf := make([]byte, 32)
	ns, _ := perCall(func() {
		fd, e := helix.NS.Open("/net/il/clone", vfs.ORDWR)
		if e != nil {
			err = e
			return
		}
		if _, e := fd.ReadAt(buf, 0); e != nil {
			err = e
		}
		fd.Close()
	})
	m["netdev.conv_setup_host_us"] = ns / 1e3
	return err
}

// probeClock prices the simulator itself: a token hand-off between two
// machine goroutines, and a Sleep with a thousand timers pending.
func probeClock(m map[string]float64) error {
	const trips, sleeps, pending = 20000, 20000, 1000
	var m0, m1 runtime.MemStats
	v := vclock.NewVirtual()
	v.Run(func() {
		ping, pong := vclock.NewMailbox[int](v, 1), vclock.NewMailbox[int](v, 1)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		runtime.ReadMemStats(&m0)
		t0 := time.Now() //netvet:ignore realtime host cost of a probe loop
		for i := 0; i < trips; i++ {
			ping.Send(i)
			pong.Recv()
		}
		m["vclock.handoff_ns"] = float64(time.Since(t0).Nanoseconds()) / (2 * trips) //netvet:ignore realtime host cost of a probe loop
		runtime.ReadMemStats(&m1)
		m["vclock.handoff_allocs"] = float64(m1.Mallocs-m0.Mallocs) / (2 * trips)
		ping.Close()

		for i := 0; i < pending; i++ {
			v.AfterFunc(time.Hour, func() {})
		}
		t0 = time.Now() //netvet:ignore realtime host cost of a probe loop
		for i := 0; i < sleeps; i++ {
			v.Sleep(time.Microsecond)
		}
		m["vclock.timer_ns"] = float64(time.Since(t0).Nanoseconds()) / sleeps //netvet:ignore realtime host cost of a probe loop
	})
	return nil
}

// Table 1 of the paper, on the virtual clock and the calibrated media:
// a 1-byte echo for latency, 16 KiB writes for throughput, over each of
// its three networks and over TCP, which the paper does not tabulate.
const (
	t1Pings = 200
	t1Write = 16 << 10
	t1Total = 512 << 10
)

func probeTable1(ck vclock.Clock, seed int64, m map[string]float64) error {
	hosts := []host{{"bootes", ipBootes, false}, {"helix", ipHelix, true}, {"musca", "135.104.9.6", false}, {"gnot", "", true}}
	w, err := core.NewWorldClock(ndbFor(hosts), ck)
	if err != nil {
		return err
	}
	defer w.Close()
	prof := profiles(seed, false)
	w.AddEther("ether0", prof.Ether)
	w.AddDatakit(prof.Datakit)
	boxes := map[string]*core.Machine{}
	for _, h := range hosts {
		cfg := core.MachineConfig{Name: h.name, Datakit: h.dk}
		if h.ip != "" {
			cfg.Ethers = []string{"ether0"}
		}
		if boxes[h.name], err = w.NewMachine(cfg); err != nil {
			return err
		}
	}
	prof.Cyclone.Clock = ck
	link := cyclone.NewLink("bootes-helix", prof.Cyclone)
	w.OnClose(link.Close)
	endB, endH := link.Ends()
	if _, err := boxes["bootes"].AttachCyclone(endB); err != nil {
		return err
	}
	if _, err := boxes["helix"].AttachCyclone(endH); err != nil {
		return err
	}
	// The sink of the throughput test: take t1Total bytes, answer one.
	sink := func(_ *ns.Namespace, conn *dialer.Conn) {
		if drain(conn, t1Total) == nil {
			conn.Write([]byte{1})
		}
	}
	for _, net := range []string{"il", "tcp", "dk"} {
		if _, err := boxes["helix"].ServeEcho(net + "!*!echo"); err != nil {
			return err
		}
		if _, err := boxes["helix"].Serve(net+"!*!bench", sink); err != nil {
			return err
		}
	}
	// The boards frame messages of up to 64 KiB and a short read drops
	// the rest, so the fiber's echo reads with a buffer that size, not
	// ServeEcho's 8 KiB.
	if _, err := boxes["bootes"].Serve("cyc0!*!echo", func(_ *ns.Namespace, conn *dialer.Conn) {
		buf := make([]byte, cyclone.MaxMsg)
		for {
			n, err := conn.Read(buf)
			if err != nil || n == 0 {
				return
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				return
			}
		}
	}); err != nil {
		return err
	}

	// sent counts what the protocol engines at both ends of a path put
	// on the wire, so that an echo's host cost can be spread over them.
	helix, musca, gnot := boxes["helix"], boxes["musca"], boxes["gnot"]
	for _, p := range []struct {
		from, echo, sink          string
		connect, lat, thr, hostUs string
		perEcho                   string
		sent                      func() int64
	}{
		{"musca", "il!helix!echo", "il!helix!bench",
			"il.connect_sim_ms", "il.table1_lat_sim_ms", "il.table1_thr_sim_mbps", "il.echo_host_us",
			"il.msgs_per_echo", func() int64 { return musca.IL.MsgsSent.Load() + helix.IL.MsgsSent.Load() }},
		{"musca", "tcp!helix!echo", "tcp!helix!bench",
			"", "tcp.echo_sim_ms", "tcp.stream_sim_mbps", "tcp.echo_host_us",
			"tcp.segs_per_echo", func() int64 { return musca.TCP.SegsSent.Load() + helix.TCP.SegsSent.Load() }},
		{"gnot", "dk!nj/astro/helix!echo", "dk!nj/astro/helix!bench",
			"datakit.call_setup_sim_ms", "urp.table1_lat_sim_ms", "urp.table1_thr_sim_mbps", "urp.echo_host_us",
			"urp.blocks_per_echo", func() int64 { return gnot.DK.Stats.Blocks.Load() + helix.DK.Stats.Blocks.Load() }},
		{"helix", "cyc0!bootes!echo", "",
			"", "cyclone.table1_lat_sim_ms", "cyclone.table1_thr_sim_mbps", "", "", nil},
	} {
		nsp := boxes[p.from].NS
		t0 := ck.Now()
		conn, err := dialer.Dial(nsp, p.echo)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.echo, err)
		}
		if p.connect != "" {
			m[p.connect] = ms(int64(ck.Since(t0)))
		}
		var before int64
		if p.sent != nil {
			before = p.sent()
		}
		sim, host, err := pingPong(ck, conn)
		if p.sent != nil {
			m[p.perEcho] = float64(p.sent()-before) / (t1Pings + 1)
		}
		if err == nil && p.sink == "" {
			// The fiber carries one conversation, so its throughput
			// is taken over the echoing peer: the wire carries the
			// same traffic each way, as the full-duplex boards did.
			m[p.thr], err = echoThroughput(ck, conn)
		}
		conn.Close()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.echo, err)
		}
		m[p.lat] = ms(int64(sim))
		if p.hostUs != "" {
			m[p.hostUs] = float64(host.Nanoseconds()) / 1e3
		}
		if p.sink == "" {
			continue
		}
		if conn, err = dialer.Dial(nsp, p.sink); err != nil {
			return fmt.Errorf("probe %s: %w", p.sink, err)
		}
		m[p.thr], err = sinkThroughput(ck, conn)
		conn.Close()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.sink, err)
		}
	}
	return nil
}

// pingPong returns the simulated and the host time of one 1-byte round
// trip, after one that warms ARP and the timers.
func pingPong(ck vclock.Clock, conn io.ReadWriter) (sim, host time.Duration, err error) {
	b := make([]byte, 1)
	trip := func() {
		if _, err = conn.Write(b); err == nil {
			_, err = io.ReadFull(conn, b)
		}
	}
	trip()
	s0, h0 := ck.Now(), time.Now() //netvet:ignore realtime host cost of a probe loop
	for i := 0; i < t1Pings && err == nil; i++ {
		trip()
	}
	return ck.Since(s0) / t1Pings, time.Since(h0) / t1Pings, err //netvet:ignore realtime host cost of a probe loop
}

// drain reads n bytes off conn and drops them. Its buffer holds the
// largest message any of the networks frames: the fiber drops what a
// shorter read leaves of one.
func drain(conn io.Reader, n int) error {
	buf := make([]byte, cyclone.MaxMsg)
	for n > 0 {
		k, err := conn.Read(buf)
		n -= k
		if err != nil {
			return err
		}
	}
	return nil
}

// sinkThroughput writes t1Total in t1Write pieces and waits for the
// sink's byte: simulated MB/s.
func sinkThroughput(ck vclock.Clock, conn io.ReadWriter) (float64, error) {
	buf := make([]byte, t1Write)
	t0 := ck.Now()
	for sent := 0; sent < t1Total; sent += t1Write {
		if _, err := conn.Write(buf); err != nil {
			return 0, err
		}
	}
	if _, err := io.ReadFull(conn, buf[:1]); err != nil {
		return 0, err
	}
	return t1Total / 1e6 / ck.Since(t0).Seconds(), nil
}

// echoThroughput is sinkThroughput against an echoing peer: a second
// machine goroutine drains the echoes so that neither direction backs
// up, and the clock stops when the last byte is back.
func echoThroughput(ck vclock.Clock, conn io.ReadWriter) (float64, error) {
	var rerr error
	wg := vclock.NewWaitGroup(ck)
	wg.Add(1)
	ck.Go(func() {
		defer wg.Done()
		rerr = drain(conn, t1Total)
	})
	buf := make([]byte, t1Write)
	t0 := ck.Now()
	for sent := 0; sent < t1Total; sent += t1Write {
		if _, err := conn.Write(buf); err != nil {
			return 0, err
		}
	}
	wg.Wait()
	return t1Total / 1e6 / ck.Since(t0).Seconds(), rerr
}

// hostBudget estimates where a workload's host time per op goes: each
// row is a probe's unit cost times the count of that unit per op. What
// the rows leave unexplained is printed, not hidden.
func hostBudget(layer map[string]float64, hostUs float64) string {
	l := func(k string) float64 { return layer[k] }
	rows := []struct {
		name string
		us   float64
	}{
		// Every RPC is four codec passes: T and R, each marshaled and
		// unmarshaled; the probe times a marshal plus an unmarshal.
		{"ninep codec", 2 * l("mnt.rpcs_per_op") * l("ninep.codec_ns_per_msg") / 1e3},
		// An echo crosses the whole stack twice — stream modules, IP,
		// the interface, the medium and the clock's hand-offs
		// included — and its cost is spread over what the engines sent
		// for it, acknowledgements and all.
		{"il stack", l("il.msgs_per_op") * ratio(l("il.echo_host_us"), l("il.msgs_per_echo"))},
		{"tcp stack", l("tcp.segs_per_op") * ratio(l("tcp.echo_host_us"), l("tcp.segs_per_echo"))},
		{"urp stack", l("urp.blocks_per_op") * ratio(l("urp.echo_host_us"), l("urp.blocks_per_echo"))},
		{"backing tree", l("exportfs.backing_calls_per_op") * l("ramfs.read_ns_per_8k") / 1e3},
		{"cs", l("cs.queries_per_op") * (l("cs.hit_share")*l("cs.translate_hot_ns") + (1-l("cs.hit_share"))*l("cs.translate_miss_ns")) / 1e3},
		{"netdev clone", l("cs.queries_per_op") * l("netdev.conv_setup_host_us")},
	}
	var b strings.Builder
	rest := hostUs
	for _, r := range rows {
		if r.us > 0 {
			fmt.Fprintf(&b, "    %-14s %9.1f us  %5.1f%%\n", r.name, r.us, 100*ratio(r.us, hostUs))
			rest -= r.us
		}
	}
	fmt.Fprintf(&b, "    %-14s %9.1f us  %5.1f%%\n", "unexplained", rest, 100*ratio(rest, hostUs))
	return b.String()
}
