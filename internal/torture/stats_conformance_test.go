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
	"fmt"
	"strings"
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
		t.Errorf("walk %s: %v", name, err)
		return ""
	}
	h, err := n.Open(vfs.OREAD)
	if err != nil {
		t.Errorf("open %s: %v", name, err)
		return ""
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

	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment(ether.Profile{
			Latency: s.Latency,
			Loss:    s.Loss,
			Seed:    s.Seed,
			Impair:  s.Impair,
			Clock:   v,
		})
		st1, st2 := ip.NewStack(v), ip.NewStack(v)
		a1, a2 := ip.Addr{10, 0, 0, 1}, ip.Addr{10, 0, 0, 2}
		mask := ip.Addr{255, 255, 255, 0}
		ifc1 := seg.NewInterface("ether0")
		ifc2 := seg.NewInterface("ether0")
		if _, err := st1.Bind(ifc1, a1, mask); err != nil {
			t.Error(err)
			return
		}
		if _, err := st2.Bind(ifc2, a2, mask); err != nil {
			t.Error(err)
			return
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
		dc, ac, ok := dialAccept(v, rep, p1, p2, "17100", ip.HostPort(a2, 17100))
		if !ok {
			t.Errorf("connect: %v", rep.Violations)
			return
		}
		drive(v, s, rep, &conv{dial: dc, acc: ac})
		for _, vi := range rep.Violations {
			t.Errorf("traffic violation: %s", vi)
		}

		// Let stragglers (retransmits racing the close) land.
		v.Sleep(time.Second)
		counts := seg.ImpairCounts()

		// The scenario must actually have hurt: a conformance pass over a
		// clean wire proves nothing.
		if counts.Dropped == 0 || counts.Duplicated == 0 || counts.Corrupted == 0 {
			t.Errorf("impairment did not bite: %v", counts)
			return
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
			t.Errorf("stations dropped frames for overflow (%d): counters not comparable", ov)
			return
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
	})
}

// TestStatsConformanceCrowdedSegment balances the interfaces' receive
// counters on a segment that carries frames for someone else: two
// talkers, a bystander and a promiscuous snooper share a wire that
// loses, duplicates and corrupts. The segment hands every copy the wire
// emits to the stations that would accept it — every station but the
// sender for a broadcast, the addressee and the snooper for a unicast —
// and each of them accepts it (in) or discards it at the FCS
// (crc-errs). So Σ(in + crc-errs) over the stations must equal Σ over
// the emitted copies of that copy's hearers, which the test computes
// from the recorded schedule and the addresses it transmitted to. It
// runs on the virtual clock and transmits from one goroutine, so wire
// position i is the i'th frame sent and every figure is exact.
func TestStatsConformanceCrowdedSegment(t *testing.T) {
	const frames = 600
	const (
		talkerA = iota
		bystander
		snooper
		talkerB
		stations
	)
	const broadcast = -1
	type sent struct{ from, to int } // station numbers; to is broadcast or a station
	var (
		script  []sent
		stats   [stations]map[string]int64
		handed  [stations]int64 // frames each station's conversation was handed
		sched   []medium.Decision
		counts  medium.Counts
		v       = vclock.NewVirtual()
		talkers = [2]int{talkerA, talkerB}
	)
	v.Run(func() {
		seg := ether.NewSegment(ether.Profile{
			Latency:   200 * time.Microsecond,
			Bandwidth: 1_250_000,
			Loss:      0.05,
			Seed:      31,
			Impair:    medium.Impairment{Duplicate: 0.06, Corrupt: 0.05, CorruptBits: 3, Record: true},
			Clock:     v,
		})
		defer seg.Close()
		var ifcs [stations]*ether.Interface
		var convs [stations]*ether.Conn
		for i := range stations {
			ifcs[i] = seg.NewInterface("ether0")
			c, err := ifcs[i].OpenConn()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetType(ether.TypeAll)
			c.SetDeliver(func([]byte) { handed[i]++ })
			convs[i] = c
		}
		convs[snooper].SetPromiscuous(true)
		for i := range frames {
			s := sent{from: talkers[i%2], to: broadcast}
			switch (i / 2) % 3 {
			case 0:
				s.to = talkers[(i+1)%2]
			case 1:
				s.to = bystander
			}
			dst := ether.Broadcast
			if s.to != broadcast {
				dst = ifcs[s.to].Addr()
			}
			if err := convs[s.from].Transmit(dst, make([]byte, 64+i%200)); err != nil {
				t.Error(err)
				return
			}
			script = append(script, s)
			v.Sleep(500 * time.Microsecond)
		}
		v.Sleep(10 * time.Millisecond) // the last copies land
		for i, ifc := range ifcs {
			stats[i] = obs.ParseStats(ifc.Stats())
		}
		sched, counts = seg.Schedule(), seg.ImpairCounts()
	})
	if t.Failed() {
		return
	}
	if len(sched) != frames {
		t.Fatalf("schedule holds %d decisions for %d frames sent", len(sched), frames)
	}
	if counts.Dropped == 0 || counts.Duplicated == 0 || counts.Corrupted == 0 {
		t.Fatalf("impairment did not bite: %v", counts)
	}

	var wantIn, wantCRC [stations]int64
	var heard int64
	for _, d := range sched {
		if d.Drop {
			continue
		}
		copies := int64(1)
		if d.Dup {
			copies = 2
		}
		s := script[d.Index]
		hearers := []int{s.to, snooper}
		if s.to == broadcast {
			hearers = nil
			for st := range stations {
				if st != s.from {
					hearers = append(hearers, st)
				}
			}
		}
		for _, h := range hearers {
			if d.Corrupt {
				wantCRC[h] += copies
			} else {
				wantIn[h] += copies
			}
		}
		heard += copies * int64(len(hearers))
	}

	var total int64
	for st := range stations {
		in, crc := stats[st]["in"], stats[st]["crc-errs"]
		total += in + crc
		if ov := stats[st]["overflows"]; ov != 0 {
			t.Errorf("station %d: %d overflows, counters not comparable", st, ov)
		}
		if in != wantIn[st] || crc != wantCRC[st] {
			t.Errorf("station %d: in %d crc-errs %d, the wire's books say %d and %d", st, in, crc, wantIn[st], wantCRC[st])
		}
		if handed[st] != in {
			t.Errorf("station %d: in %d, but its conversation was handed %d frames", st, in, handed[st])
		}
	}
	if total != heard {
		t.Errorf("Σ(in + crc-errs) = %d over the stations; the emitted copies had %d hearers (emitted %d)", total, heard, counts.Emitted)
	}
	t.Logf("wire %v: %d hearers", counts, heard)
	if by := stats[bystander]["in"] + stats[bystander]["crc-errs"]; by >= counts.Emitted {
		t.Errorf("the bystander took %d of %d emitted copies: the segment is not filtering", by, counts.Emitted)
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

// TestUnreadConversationLeavesLiveOnesAlone: one IL conversation whose
// acceptor never reads, flooded with 8 KiB messages until its stream
// holds its limit, shares a segment with three live ones that dial and
// echo beside it. The live conversations finish at exactly the instants
// they finish at when that conversation is idle instead, the refused
// messages show in /net/il/stats as out-of-window, and two runs print
// the same report. Had the unread stream parked the segment's line, the
// live conversations would never have finished.
func TestUnreadConversationLeavesLiveOnesAlone(t *testing.T) {
	run := func(unread bool) string {
		var rep strings.Builder
		v := vclock.NewVirtual()
		v.Run(func() {
			w, err := newEtherWorld(v, Scenario{Latency: 200 * time.Microsecond})
			if err != nil {
				t.Error(err)
				return
			}
			defer w.close()
			p1, p2 := il.New(w.st1), il.New(w.st2)
			defer p1.Close()
			defer p2.Close()
			// The control run opens the same conversation and leaves it
			// idle, so both runs have resolved the same addresses.
			r := &Report{}
			dc, ac, ok := dialAccept(v, r, p1, p2, "17200", ip.HostPort(w.a2, 17200))
			if !ok {
				t.Errorf("connect: %v", r.Violations)
				return
			}
			defer ac.Close()
			defer dc.Close() // first: it wakes the flood's parked Write
			if unread {
				v.Go(func() {
					msg := make([]byte, 8<<10)
					for {
						if _, err := dc.Write(msg); err != nil {
							return
						}
					}
				})
			}
			v.Sleep(100 * time.Millisecond) // the flood fills the unread stream
			start := v.Now()
			wg := vclock.NewWaitGroup(v)
			done := make([]time.Duration, 3)
			for i := range done {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					port := 17300 + i
					r := &Report{}
					dc, ac, ok := dialAccept(v, r, p1, p2, fmt.Sprint(port), ip.HostPort(w.a2, uint16(port)))
					if !ok {
						t.Errorf("live %d: connect: %v", i, r.Violations)
						return
					}
					defer dc.Close()
					defer ac.Close()
					msg, buf := make([]byte, 1<<10), make([]byte, 2<<10)
					for k := range 16 {
						dc.Write(msg)
						n, err := ac.Read(buf)
						if err == nil {
							_, err = ac.Write(buf[:n])
						}
						if err == nil {
							n, err = dc.Read(buf)
						}
						if err != nil || n != len(msg) {
							t.Errorf("live %d: round trip %d: %d bytes, %v", i, k, n, err)
							return
						}
					}
					done[i] = v.Now().Sub(start)
				})
			}
			wg.Wait()
			for i, d := range done {
				fmt.Fprintf(&rep, "live %d: done in %v\n", i, d)
			}
			fmt.Fprintf(&rep, "out-of-window: %d\n", devStats(t, p2)["out-of-window"])
		})
		return rep.String()
	}
	idle, crowded := run(false), run(true)
	if t.Failed() {
		return
	}
	if again := run(true); again != crowded {
		t.Errorf("same-seed runs differ:\n%s\n%s", crowded, again)
	}
	// A dial is three crossings of 200 µs, and each of the sixteen
	// round trips two. The unread conversation's sender resends the
	// message it was refused each time a query proves it missing, and
	// the stream, still full, refuses it again.
	live := "live 0: done in 7ms\nlive 1: done in 7ms\nlive 2: done in 7ms\n"
	if want := live + "out-of-window: 0\n"; idle != want {
		t.Errorf("beside an idle conversation:\n%s\nwant\n%s", idle, want)
	}
	if want := live + "out-of-window: 10\n"; crowded != want {
		t.Errorf("beside an unread conversation:\n%s\nwant\n%s", crowded, want)
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

	v := vclock.NewVirtual()
	v.Run(func() {
		sw := datakit.NewSwitch(medium.Profile{
			Latency: s.Latency,
			MTU:     2048,
			Seed:    s.Seed,
			Impair:  s.Impair,
			Clock:   v,
		})
		defer sw.Close()
		h1, err := sw.NewHost("nj/astro/conf-a")
		if err != nil {
			t.Error(err)
			return
		}
		h2, err := sw.NewHost("nj/astro/conf-b")
		if err != nil {
			t.Error(err)
			return
		}
		p1, p2 := datakit.NewProto(h1), datakit.NewProto(h2)

		rep := &Report{Scenario: s}
		dc, ac, ok := dialAccept(v, rep, p1, p2, "conf", "nj/astro/conf-b!conf")
		if !ok {
			t.Errorf("connect: %v", rep.Violations)
			return
		}
		wires, _ := dc.(*datakit.Conn)
		drive(v, s, rep, &conv{dial: dc, acc: ac})
		for _, vi := range rep.Violations {
			t.Errorf("traffic violation: %s", vi)
		}

		// Let stragglers (retransmits racing the close) land.
		v.Sleep(time.Second)
		counts, ok := wires.WireCounts()
		if !ok {
			t.Error("dial conn has no wire")
			return
		}
		if counts.Corrupted == 0 {
			t.Errorf("impairment did not bite: %v", counts)
			return
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
	})
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

	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment(ether.Profile{
			Latency: s.Latency,
			Loss:    s.Loss,
			Seed:    s.Seed,
			Impair:  s.Impair,
			Clock:   v,
		})
		st1, st2 := ip.NewStack(v), ip.NewStack(v)
		a1, a2 := ip.Addr{10, 0, 1, 1}, ip.Addr{10, 0, 1, 2}
		mask := ip.Addr{255, 255, 255, 0}
		if _, err := st1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
			t.Error(err)
			return
		}
		if _, err := st2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
			t.Error(err)
			return
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
		dc, ac, ok := dialAccept(v, rep, p1, p2, "17101", ip.HostPort(a2, 17101))
		if !ok {
			t.Errorf("connect: %v", rep.Violations)
			return
		}
		fs := ramfs.NewClock("conf", v)
		srvDone := vclock.NewWaitGroup(v)
		srvDone.Add(1)
		v.Go(func() {
			defer srvDone.Done()
			ninep.Serve(ninep.NewDelimConn(ac), func(uname, aname string) (vfs.Node, error) {
				return fs.Attach(aname)
			}, v)
		})

		before := mnt.StatsGroup().Snapshot()
		cfg := mnt.FileConfig()
		cfg.Client.Clock = v
		root, cl, err := mnt.MountConfig(ninep.NewDelimConn(dc), "conf", "", cfg)
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}

		// A large sequential write coalesces into write-behind fragments;
		// the read-back first barriers the writes, then establishes a
		// sequential pattern and runs on prefetched fragments.
		_, h, err := root.(vfs.Creator).Create("blob", 0644, vfs.ORDWR)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		blob := make([]byte, 6*ninep.MaxFData)
		for i := range blob {
			blob[i] = byte(i * 7)
		}
		var off int64
		for off < int64(len(blob)) {
			n, err := h.Write(blob[off:min(off+8192, int64(len(blob)))], off)
			if err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
			off += int64(n)
		}
		got := make([]byte, len(blob))
		var roff int64
		for roff < int64(len(got)) {
			n, err := h.Read(got[roff:min(roff+8192, int64(len(got)))], roff)
			if err != nil {
				t.Errorf("read at %d: %v", roff, err)
				return
			}
			if n == 0 {
				t.Errorf("early eof at %d", roff)
				return
			}
			roff += int64(n)
		}
		for i := range got {
			if got[i] != blob[i] {
				t.Errorf("read-back diverges at byte %d", i)
				return
			}
		}
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
			return
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
		srvDone.Wait()
	})
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
