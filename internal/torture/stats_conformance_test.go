package torture

// The stats-conformance suite: the observability tentpole's ground
// truth check. A machine's /net stats files are only diagnostic tools
// if their numbers are TRUE, so each test here runs real traffic over
// a deterministically impaired medium, reads the stats back the way a
// user would — through the device file tree, parsed with
// obs.ParseStats — and reconciles them against two independent
// sources:
//
//   - the medium's own impairment counters (medium.Impairer.Counts):
//     what the wire actually dropped, duplicated, and corrupted;
//   - the protocol engines' exported counters: what the code that
//     bumped the numbers believes.
//
// A stats file that disagrees with either is lying to the operator.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datakit"
	"repro/internal/ether"
	"repro/internal/il"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/mnt"
	"repro/internal/netdev"
	"repro/internal/ninep"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// readNodeText reads a whole file out of a device tree node, the way
// a process (or a remote importer) would.
func readNodeText(t *testing.T, root vfs.Node, name string) string {
	t.Helper()
	n, err := root.Walk(name)
	if err != nil {
		t.Fatalf("walk %s: %v", name, err)
	}
	h, err := n.Open(vfs.OREAD)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer h.Close()
	var text []byte
	buf := make([]byte, 8192)
	var off int64
	for {
		n, err := h.Read(buf, off)
		text = append(text, buf[:n]...)
		off += int64(n)
		if err != nil || n == 0 {
			break
		}
	}
	return string(text)
}

// devStats mounts proto as a protocol device and parses its stats
// file — the exact text a cat of /net/PROTO/stats serves.
func devStats(t *testing.T, p xport.Proto) map[string]int64 {
	t.Helper()
	return obs.ParseStats(readNodeText(t, netdev.New(p, "conformance").Root(), "stats"))
}

// quiesce polls snap until two consecutive samples agree, so counters
// racing with in-flight frames settle before the books are balanced.
func quiesce(t *testing.T, snap func() []int64) []int64 {
	t.Helper()
	prev := snap()
	for i := 0; i < 400; i++ {
		time.Sleep(25 * time.Millisecond)
		cur := snap()
		same := true
		for j := range cur {
			if cur[j] != prev[j] {
				same = false
			}
		}
		if same {
			return cur
		}
		prev = cur
	}
	t.Fatalf("counters never quiesced: %v", prev)
	return nil
}

// TestStatsConformanceIL reconciles /net/il/stats and the ether
// interface stats against the segment impairer under loss, corruption,
// and duplication.
func TestStatsConformanceIL(t *testing.T) {
	s := Scenario{
		Proto:  ProtoIL,
		Seed:   11,
		Msgs:   80,
		Back:   80,
		MaxMsg: 512,
		Loss:   0.04,
		Impair: medium.Impairment{
			Duplicate:   0.06,
			Corrupt:     0.05,
			CorruptBits: 3,
			Record:      true,
		},
		Latency: 200 * time.Microsecond,
	}.withDefaults()

	seg := ether.NewSegment("conf0", ether.Profile{
		Latency: s.Latency,
		Loss:    s.Loss,
		Seed:    s.Seed,
		Impair:  s.Impair,
	})
	st1, st2 := ip.NewStack(), ip.NewStack()
	a1, a2 := ip.Addr{10, 0, 0, 1}, ip.Addr{10, 0, 0, 2}
	mask := ip.Addr{255, 255, 255, 0}
	ifc1 := seg.NewInterface("ether0")
	ifc2 := seg.NewInterface("ether0")
	if _, err := st1.Bind(ifc1, a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Bind(ifc2, a2, mask); err != nil {
		t.Fatal(err)
	}
	p1, p2 := il.New(st1), il.New(st2)
	defer func() {
		p1.Close()
		p2.Close()
		st1.Close()
		st2.Close()
		seg.Close()
	}()

	rep := &Report{Scenario: s}
	dc, ac, ok := dialAccept(vclock.Real, rep, p1, p2, "17100", ip.HostPort(a2, 17100))
	if !ok {
		t.Fatalf("connect: %v", rep.Violations)
	}
	drive(vclock.Real, s, rep, &conv{dial: dc, acc: ac})
	for _, v := range rep.Violations {
		t.Errorf("traffic violation: %s", v)
	}

	// Let stragglers (retransmits racing the close) land.
	vals := quiesce(t, func() []int64 {
		c := seg.ImpairCounts()
		return []int64{
			c.Sent, c.Emitted, c.Dropped, c.Duplicated, c.Corrupted,
			ifc1.CRCErrs() + ifc2.CRCErrs(),
		}
	})
	counts := seg.ImpairCounts()
	_ = vals

	// The scenario must actually have hurt: a conformance pass over a
	// clean wire proves nothing.
	if counts.Dropped == 0 || counts.Duplicated == 0 || counts.Corrupted == 0 {
		t.Fatalf("impairment did not bite: %v", counts)
	}

	// Ground truth 1: every corrupted emission reaches exactly one
	// receiving interface and dies at its FCS check. A message both
	// corrupted and duplicated puts TWO damaged copies on the wire,
	// so the exact expectation comes from the recorded per-message
	// schedule, not the corrupted-messages counter.
	var corruptCopies int64
	for _, d := range seg.Schedule() {
		if d.Corrupt {
			corruptCopies++
			if d.Dup {
				corruptCopies++
			}
		}
	}
	st1Stats := obs.ParseStats(ifc1.Stats())
	st2Stats := obs.ParseStats(ifc2.Stats())
	if ov := st1Stats["overflows"] + st2Stats["overflows"]; ov != 0 {
		t.Fatalf("input rings overflowed (%d): counters not comparable", ov)
	}
	fileCRC := st1Stats["crc-errs"] + st2Stats["crc-errs"]
	if fileCRC != corruptCopies {
		t.Errorf("ether stats crc-errs %d, impairer emitted %d corrupted copies (corrupted msgs %d)",
			fileCRC, corruptCopies, counts.Corrupted)
	}
	if engine := ifc1.CRCErrs() + ifc2.CRCErrs(); fileCRC != engine {
		t.Errorf("stats file crc-errs %d, engine counter %d", fileCRC, engine)
	}

	// Ground truth 2: conservation. Every copy the impairer emitted
	// was delivered to the one other station and either accepted (in)
	// or discarded at the FCS (crc-errs); dropped and still-held
	// copies were never emitted.
	fileIn := st1Stats["in"] + st2Stats["in"]
	if fileIn+fileCRC != counts.Emitted {
		t.Errorf("in %d + crc-errs %d != emitted %d (dropped %d, pending %d)",
			fileIn, fileCRC, counts.Emitted, counts.Dropped, counts.Pending)
	}

	// Protocol layer: /net/il/stats must agree with the engine's
	// exported counters, and the damage must be visible in them —
	// drops and corruption force retransmits, wire duplicates show up
	// as dups received. Corruption died at the ether FCS, so the IL
	// checksum never saw it.
	il1, il2 := devStats(t, p1), devStats(t, p2)
	for name, eng := range map[string]int64{
		"retransmits": p1.Retransmits.Load() + p2.Retransmits.Load(),
		"msgs-sent":   p1.MsgsSent.Load() + p2.MsgsSent.Load(),
		"msgs-rcvd":   p1.MsgsRcvd.Load() + p2.MsgsRcvd.Load(),
		"dups-rcvd":   p1.DupsReceived.Load() + p2.DupsReceived.Load(),
	} {
		if file := il1[name] + il2[name]; file != eng {
			t.Errorf("/net/il/stats %s: file %d, engine %d", name, file, eng)
		}
	}
	if r := il1["retransmits"] + il2["retransmits"]; r == 0 {
		t.Errorf("wire dropped %d and corrupted %d frames but IL retransmitted nothing",
			counts.Dropped, counts.Corrupted)
	}
	if d := il1["dups-rcvd"] + il2["dups-rcvd"]; d == 0 {
		t.Errorf("wire duplicated %d frames but IL saw no duplicates", counts.Duplicated)
	}
	if ce := il1["checksum-errs"] + il2["checksum-errs"]; ce != 0 {
		t.Errorf("IL checksum-errs %d: corruption leaked past the ether FCS", ce)
	}
}

// TestStatsConformanceCleanWire is the conformance identity of a wire
// that loses nothing: IL's stats files must then show no retransmission,
// no duplicate and nothing outside the window, however the timers fell.
// Both ends burst sixty 8 KiB messages — six packets each, three windows
// deep — at each other at once, on the calibrated Ethernet (where an ack
// queues behind the burst it acknowledges for longer than the minimum
// timeout) and on the WAN (where the window is smaller than the path),
// on the virtual clock, so the verdict is exact.
func TestStatsConformanceCleanWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof ether.Profile
	}{
		{"calibrated Ethernet", core.CalibratedProfiles().Ether},
		{"WAN", core.WANProfiles().Ether},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const msgs, size = 60, 8 << 10
			var il1, il2 map[string]int64
			v := vclock.NewVirtual()
			v.Run(func() {
				w, err := newEtherWorld(v, Scenario{Latency: tc.prof.Latency, Bandwidth: tc.prof.Bandwidth})
				if err != nil {
					t.Error(err)
					return
				}
				defer w.close()
				p1, p2 := il.New(w.st1), il.New(w.st2)
				defer p1.Close()
				defer p2.Close()
				rep := &Report{}
				dc, ac, ok := dialAccept(v, rep, p1, p2, "17100", ip.HostPort(w.a2, 17100))
				if !ok {
					t.Errorf("connect: %v", rep.Violations)
					return
				}
				defer dc.Close()
				defer ac.Close()
				// A few spaced one-byte exchanges first, as a 9P
				// conversation's small requests would: the timeout
				// settles at what an empty wire needs.
				one := make([]byte, 1)
				for range 8 {
					dc.Write(one)
					ac.Read(one)
					ac.Write(one)
					dc.Read(one)
					v.Sleep(50 * time.Millisecond)
				}
				wg := vclock.NewWaitGroup(v)
				for _, c := range []xport.Conn{dc, ac} {
					wg.Add(2)
					v.Go(func() {
						defer wg.Done()
						msg := make([]byte, size)
						for i := range msgs {
							if _, err := c.Write(msg); err != nil {
								t.Errorf("write %d: %v", i, err)
								return
							}
						}
					})
					v.Go(func() {
						defer wg.Done()
						buf := make([]byte, size)
						for i := range msgs {
							if n, err := c.Read(buf); err != nil || n != size {
								t.Errorf("message %d: read %d, %v", i, n, err)
								return
							}
						}
					})
				}
				wg.Wait()
				// The last acks are still on the wire.
				v.Sleep(time.Second)
				il1, il2 = devStats(t, p1), devStats(t, p2)
			})
			if t.Failed() {
				return
			}
			if sent := il1["msgs-sent"] + il2["msgs-sent"]; sent < 2*msgs*6 {
				t.Fatalf("only %d packets sent: the bursts did not run", sent)
			}
			for _, name := range []string{"retransmits", "dups-rcvd", "out-of-window", "checksum-errs"} {
				if n := il1[name] + il2[name]; n != 0 {
					t.Errorf("/net/il/stats %s = %d on a wire that lost nothing (queries sent: %d)",
						name, n, il1["queries-sent"]+il2["queries-sent"])
				}
			}
		})
	}
}

// TestStatsConformanceDatakit reconciles /net/dk/stats against the
// circuit's impairment counters: every corrupted cell must die at the
// URP FCS and be reported, and the retransmission counters must match
// the engine.
func TestStatsConformanceDatakit(t *testing.T) {
	s := Scenario{
		Proto:  ProtoURP,
		Seed:   23,
		Msgs:   60,
		Back:   60,
		MaxMsg: 400,
		Impair: medium.Impairment{
			Corrupt:     0.05,
			CorruptBits: 3,
		},
		Latency: 100 * time.Microsecond,
	}.withDefaults()

	sw := datakit.NewSwitch(medium.Profile{
		Latency: s.Latency,
		MTU:     2048,
		Seed:    s.Seed,
		Impair:  s.Impair,
	})
	defer sw.Close()
	h1, err := sw.NewHost("nj/astro/conf-a")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sw.NewHost("nj/astro/conf-b")
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := datakit.NewProto(h1), datakit.NewProto(h2)

	rep := &Report{Scenario: s}
	dc, ac, ok := dialAccept(vclock.Real, rep, p1, p2, "conf", "nj/astro/conf-b!conf")
	if !ok {
		t.Fatalf("connect: %v", rep.Violations)
	}
	wires, _ := dc.(*datakit.Conn)
	drive(vclock.Real, s, rep, &conv{dial: dc, acc: ac})
	for _, v := range rep.Violations {
		t.Errorf("traffic violation: %s", v)
	}

	vals := quiesce(t, func() []int64 {
		c, _ := wires.WireCounts()
		return []int64{c.Emitted, c.Corrupted,
			p1.FCSErrs.Load() + p2.FCSErrs.Load()}
	})
	counts, ok := wires.WireCounts()
	if !ok {
		t.Fatal("dial conn has no wire")
	}
	_ = vals
	if counts.Corrupted == 0 {
		t.Fatalf("impairment did not bite: %v", counts)
	}

	dk1, dk2 := devStats(t, p1), devStats(t, p2)
	fileFCS := dk1["fcs-errs"] + dk2["fcs-errs"]
	if fileFCS != counts.Corrupted {
		t.Errorf("/net/dk/stats fcs-errs %d, impairer corrupted %d", fileFCS, counts.Corrupted)
	}
	for name, eng := range map[string]int64{
		"blocks":      p1.Stats.Blocks.Load() + p2.Stats.Blocks.Load(),
		"retransmits": p1.Stats.Retransmits.Load() + p2.Stats.Retransmits.Load(),
		"rejects":     p1.Stats.Rejects.Load() + p2.Stats.Rejects.Load(),
		"enquiries":   p1.Stats.Enquiries.Load() + p2.Stats.Enquiries.Load(),
	} {
		if file := dk1[name] + dk2[name]; file != eng {
			t.Errorf("/net/dk/stats %s: file %d, engine %d", name, file, eng)
		}
	}
	// Corrupted cells vanish at the FCS, so the window stalls until
	// recovery — the recovery counters cannot all be zero.
	if r := dk1["retransmits"] + dk2["retransmits"] + dk1["rejects"] + dk2["rejects"] +
		dk1["enquiries"] + dk2["enquiries"]; r == 0 {
		t.Errorf("wire corrupted %d cells but URP recovered nothing", counts.Corrupted)
	}
}

// TestStatsConformanceMnt drives the pipelined mount driver over an
// impaired IL link and reconciles the /net/mnt/stats sources: the
// package-level readahead/write-behind counters and the 9P client's
// RPC counters, against what the traffic must have done.
func TestStatsConformanceMnt(t *testing.T) {
	s := Scenario{
		Proto:   Proto9P,
		Seed:    5,
		Loss:    0.02,
		Latency: 100 * time.Microsecond,
	}.withDefaults()

	seg := ether.NewSegment("conf9p", ether.Profile{
		Latency: s.Latency,
		Loss:    s.Loss,
		Seed:    s.Seed,
		Impair:  s.Impair,
	})
	st1, st2 := ip.NewStack(), ip.NewStack()
	a1, a2 := ip.Addr{10, 0, 1, 1}, ip.Addr{10, 0, 1, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := st1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
		t.Fatal(err)
	}
	p1, p2 := il.New(st1), il.New(st2)
	defer func() {
		p1.Close()
		p2.Close()
		st1.Close()
		st2.Close()
		seg.Close()
	}()

	rep := &Report{Scenario: s}
	dc, ac, ok := dialAccept(vclock.Real, rep, p1, p2, "17101", ip.HostPort(a2, 17101))
	if !ok {
		t.Fatalf("connect: %v", rep.Violations)
	}
	fs := ramfs.New("conf")
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		ninep.Serve(ninep.NewDelimConn(ac), func(uname, aname string) (vfs.Node, error) {
			return fs.Attach(aname)
		})
	}()

	before := mnt.StatsGroup().Snapshot()
	root, cl, err := mnt.MountConfig(ninep.NewDelimConn(dc), "conf", "", mnt.FileConfig())
	if err != nil {
		t.Fatalf("mount: %v", err)
	}

	// A large sequential write coalesces into write-behind fragments;
	// the read-back first barriers the writes, then establishes a
	// sequential pattern and runs on prefetched fragments.
	_, h, err := root.(vfs.Creator).Create("blob", 0644, vfs.ORDWR)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	blob := make([]byte, 6*ninep.MaxFData)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	var off int64
	for off < int64(len(blob)) {
		n, err := h.Write(blob[off:min(off+8192, int64(len(blob)))], off)
		if err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		off += int64(n)
	}
	got := make([]byte, len(blob))
	var roff int64
	for roff < int64(len(got)) {
		n, err := h.Read(got[roff:min(roff+8192, int64(len(got)))], roff)
		if err != nil {
			t.Fatalf("read at %d: %v", roff, err)
		}
		if n == 0 {
			t.Fatalf("early eof at %d", roff)
		}
		roff += int64(n)
	}
	for i := range got {
		if got[i] != blob[i] {
			t.Fatalf("read-back diverges at byte %d", i)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	after := mnt.StatsGroup().Snapshot()
	delta := func(name string) int64 { return after[name] - before[name] }
	if delta("wb-issued") == 0 {
		t.Error("sequential 6-fragment write issued no write-behind fragments")
	}
	if delta("wb-barriers") == 0 {
		t.Error("read-after-write drained no barrier")
	}
	if delta("ra-issued") == 0 {
		t.Error("sequential read issued no readahead")
	}
	if delta("ra-hits") == 0 {
		t.Error("sequential read never consumed prefetched data")
	}

	// The client's stats group must agree with its engine counters,
	// and the traffic above cannot have run without RPCs or without
	// ever having more than one RPC in flight.
	snap := cl.StatsGroup().Snapshot()
	if snap["rpcs"] != cl.RPCs.Load() || snap["rpcs"] == 0 {
		t.Errorf("client rpcs: file %d, engine %d", snap["rpcs"], cl.RPCs.Load())
	}
	if snap["window-max"] != cl.WindowHW.Load() || snap["window-max"] < 2 {
		t.Errorf("window-max %d: pipelined transfer never overlapped RPCs", snap["window-max"])
	}
	if hist := cl.RPCHist.SnapshotHist(); hist.Count == 0 {
		t.Error("rpc latency histogram observed nothing")
	}

	cl.Close()
	dc.Close()
	ac.Close()
	<-srvDone
}

// TestStatsConformanceModules balances the line-discipline module
// counters against ground truth. A chaos scenario runs with the
// batch+compress stack on both ends over a lossy wire; because the
// modules ride above the protocol engine, retransmissions must never
// leak into their counters, so every identity is exact:
//
//   - per end: compress saved + wire bytes == bytes in (conservation);
//   - per end: batch flushes-by-cause sum == wire blocks emitted;
//   - per end: batch wire bytes == payload bytes + 4 per message;
//   - across ends: one side's decoder figures equal the other side's
//     encoder figures, both directions — nothing invented, nothing
//     lost, under loss, duplication, and corruption on the wire;
//   - against the driver: batch bytes-in equals the bytes the traffic
//     generator says it sent.
func TestStatsConformanceModules(t *testing.T) {
	for _, proto := range Protos {
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			s := Chaos(proto, 29, 40)
			s.Virtual = true
			s.Mods = []string{"compress", "batch 1024 2ms"}
			rep := Run(s)
			if rep.Failed() {
				t.Fatalf("scenario failed:\n%s", rep)
			}
			d, a := rep.DialMods, rep.AccMods
			if d == nil || a == nil {
				t.Fatal("no module snapshots in the report")
			}
			for name, m := range map[string]map[string]int64{"dial": d, "acc": a} {
				if got := m["compress-saved-bytes"] + m["compress-wire-bytes"]; got != m["compress-bytes-in"] {
					t.Errorf("%s: compress conservation broken: saved+wire=%d, in=%d", name, got, m["compress-bytes-in"])
				}
				flushes := m["batch-flush-cap"] + m["batch-flush-timer"] + m["batch-flush-ctl"] +
					m["batch-flush-hangup"] + m["batch-flush-pop"]
				if flushes != m["batch-wire-blocks"] {
					t.Errorf("%s: flush causes sum %d != wire blocks %d", name, flushes, m["batch-wire-blocks"])
				}
				if got := m["batch-bytes-in"] + 4*m["batch-msgs-in"]; got != m["batch-wire-bytes"] {
					t.Errorf("%s: batch framing books broken: in+hdrs=%d, wire=%d", name, got, m["batch-wire-bytes"])
				}
				if m["batch-errs"] != 0 || m["compress-dec-errs"] != 0 {
					t.Errorf("%s: decode errors on a reliable conversation: batch %d compress %d",
						name, m["batch-errs"], m["compress-dec-errs"])
				}
			}
			// Cross-end conservation, both directions.
			for _, dir := range []struct {
				name   string
				tx, rx map[string]int64
			}{{"forward", d, a}, {"backward", a, d}} {
				if dir.rx["compress-dec-frames"] != dir.tx["compress-blocks-in"] {
					t.Errorf("%s: %d frames decoded, %d encoded", dir.name,
						dir.rx["compress-dec-frames"], dir.tx["compress-blocks-in"])
				}
				if dir.rx["compress-dec-bytes"] != dir.tx["compress-bytes-in"] {
					t.Errorf("%s: %d bytes decoded, %d encoded", dir.name,
						dir.rx["compress-dec-bytes"], dir.tx["compress-bytes-in"])
				}
				if dir.rx["compress-dec-wire-bytes"] != dir.tx["compress-wire-bytes"] {
					t.Errorf("%s: %d wire bytes consumed, %d produced", dir.name,
						dir.rx["compress-dec-wire-bytes"], dir.tx["compress-wire-bytes"])
				}
				if dir.rx["batch-split-frames"] != dir.tx["batch-msgs-in"] {
					t.Errorf("%s: %d frames split out, %d messages framed", dir.name,
						dir.rx["batch-split-frames"], dir.tx["batch-msgs-in"])
				}
				if dir.rx["batch-split-bytes"] != dir.tx["batch-bytes-in"] {
					t.Errorf("%s: %d bytes split out, %d framed", dir.name,
						dir.rx["batch-split-bytes"], dir.tx["batch-bytes-in"])
				}
			}
			// Against the driver's own books: what the generator sent is
			// exactly what entered each batch coalescer.
			if d["batch-bytes-in"] != rep.Forward.SentBytes && s.Proto != Proto9P {
				t.Errorf("dial batch saw %d bytes, generator sent %d", d["batch-bytes-in"], rep.Forward.SentBytes)
			}
			if a["batch-bytes-in"] != rep.Backward.SentBytes && s.Proto != Proto9P {
				t.Errorf("acc batch saw %d bytes, generator sent %d", a["batch-bytes-in"], rep.Backward.SentBytes)
			}
		})
	}
}
