package torture

import (
	"bytes"
	"encoding/binary"
	"io"

	"repro/internal/cyclone"
	"repro/internal/datakit"
	"repro/internal/ether"
	"repro/internal/il"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/ninep"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/streams"
	"repro/internal/tcp"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// conv is an established conversation plus the hooks the driver needs
// to observe the medium and tear the world down.
type conv struct {
	dial, acc io.ReadWriteCloser
	stream    bool // byte stream (tcp): write delimiters not preserved
	retrans   func() int64
	counts    func() medium.Counts
	schedule  func() []medium.Decision
	teardown  func() // closes protos, stacks, segments — after the conns
}

// dress wraps both ends of the conversation in Lines running the
// scenario's module stack, returning the stats groups to snapshot
// after the drain. The modules restore message boundaries themselves,
// so a dressed conversation is never a raw byte stream.
func dress(ck vclock.Clock, s Scenario, rep *Report, c *conv) (dialG, accG []*obs.Group) {
	dl, al := streams.NewLine(c.dial, ck, 0), streams.NewLine(c.acc, ck, 0)
	if err := dl.Push(s.Mods...); err != nil {
		rep.violate("mods", "push %v on dialer: %v", s.Mods, err)
	}
	if err := al.Push(s.Mods...); err != nil {
		rep.violate("mods", "push %v on acceptor: %v", s.Mods, err)
	}
	c.dial, c.acc = dl, al
	c.stream = false
	return dl.ModuleStats(), al.ModuleStats()
}

// snapshotGroups merges the final counter values of a module stack
// into one map; the groups stay valid after the Line closes.
func snapshotGroups(gs []*obs.Group) map[string]int64 {
	m := make(map[string]int64)
	for _, g := range gs {
		for k, v := range g.Snapshot() {
			m[k] = v
		}
	}
	return m
}

// drive runs the two-directional traffic over an established
// conversation, then closes everything and fills the report.
func drive(ck vclock.Clock, s Scenario, rep *Report, c *conv) {
	var dialG, accG []*obs.Group
	if len(s.Mods) > 0 {
		dialG, accG = dress(ck, s, rep, c)
	}
	watchdog := ck.AfterFunc(s.Timeout, func() {
		rep.violate("timeout", "conversation did not finish in %v", s.Timeout)
		// Unblock every reader and writer; the run then drains.
		c.dial.Close()
		c.acc.Close()
	})
	wg := vclock.NewWaitGroup(ck)
	wg.Add(4)
	ck.Go(func() {
		defer wg.Done()
		sendMsgs(s, rep, c.dial, 0, s.Msgs, &rep.Forward)
	})
	ck.Go(func() {
		defer wg.Done()
		if c.stream {
			recvStream(s, rep, c.acc, 0, s.Msgs, &rep.Forward)
		} else {
			recvMsgs(s, rep, c.acc, 0, s.Msgs, &rep.Forward)
		}
	})
	ck.Go(func() {
		defer wg.Done()
		sendMsgs(s, rep, c.acc, 1, s.Back, &rep.Backward)
	})
	ck.Go(func() {
		defer wg.Done()
		if c.stream {
			recvStream(s, rep, c.dial, 1, s.Back, &rep.Backward)
		} else {
			recvMsgs(s, rep, c.dial, 1, s.Back, &rep.Backward)
		}
	})
	wg.Wait()
	watchdog.Stop()
	c.dial.Close()
	c.acc.Close()
	if c.retrans != nil {
		rep.Retransmits = c.retrans()
	}
	if c.counts != nil {
		rep.Wire = c.counts()
	}
	if c.schedule != nil {
		rep.Schedule = c.schedule()
	}
	if c.teardown != nil {
		c.teardown()
	}
	if dialG != nil {
		rep.DialMods, rep.AccMods = snapshotGroups(dialG), snapshotGroups(accG)
	}
}

// sendMsgs writes count deterministic messages in direction dir.
func sendMsgs(s Scenario, rep *Report, w io.ReadWriteCloser, dir byte, count int, stats *DirStats) {
	sum := newStreamSum()
	defer func() {
		stats.SentBytes = sum.n
		stats.SentSum = sum.sum()
	}()
	for seq := 0; seq < count; seq++ {
		msg := message(s.Seed, dir, seq, s.MaxMsg)
		if _, err := w.Write(msg); err != nil {
			rep.violate("send", "dir %d message #%d: %v", dir, seq, err)
			return
		}
		sum.add(msg)
	}
}

// recvMsgs reads count delimited messages and verifies each against
// the regenerated expectation, classifying any divergence.
func recvMsgs(s Scenario, rep *Report, r io.ReadWriteCloser, dir byte, count int, stats *DirStats) {
	sum := newStreamSum()
	defer func() {
		stats.RecvBytes = sum.n
		stats.RecvSum = sum.sum()
	}()
	buf := make([]byte, msgHdrLen+s.MaxMsg+256)
	want := 0
	for want < count {
		n, err := r.Read(buf)
		if err != nil {
			if want < count {
				rep.violate("teardown", "dir %d: read failed at message #%d of %d: %v", dir, want, count, err)
			}
			return
		}
		got := buf[:n]
		exp := message(s.Seed, dir, want, s.MaxMsg)
		if bytes.Equal(got, exp) {
			sum.add(got)
			stats.Msgs++
			want++
			continue
		}
		// Divergence: decode the embedded header to say what went
		// wrong — a replayed earlier message, a gap, or corruption.
		switch {
		case n >= msgHdrLen && got[0] == msgMagic && got[1] == dir:
			seq := int(binary.BigEndian.Uint32(got[2:]))
			switch {
			case seq < want:
				rep.violate("duplicate", "dir %d: message #%d delivered again while expecting #%d", dir, seq, want)
				// Drop the replay; the expectation stands.
			case seq > want:
				rep.violate("order", "dir %d: expected message #%d, got #%d (gap of %d)", dir, want, seq, seq-want)
				want = seq + 1
			default:
				rep.violate("corrupt", "dir %d: message #%d delivered damaged (%d bytes, want %d)", dir, want, n, len(exp))
				want++
			}
		default:
			rep.violate("corrupt", "dir %d: unparseable %d-byte delivery while expecting message #%d", dir, n, want)
			want++
		}
		if rep.overloaded() {
			r.Close()
			return
		}
	}
}

// recvStream reads a byte-stream protocol: delimiters are gone, so
// the reader walks a cursor over the expected concatenated stream.
func recvStream(s Scenario, rep *Report, r io.ReadWriteCloser, dir byte, count int, stats *DirStats) {
	sum := newStreamSum()
	defer func() {
		stats.RecvBytes = sum.n
		stats.RecvSum = sum.sum()
	}()
	var expect []byte // remaining unmatched bytes of message #seq
	seq := 0
	buf := make([]byte, 32*1024)
	for seq < count || len(expect) > 0 {
		n, err := r.Read(buf)
		if err != nil {
			rep.violate("teardown", "dir %d: stream read failed in message #%d of %d: %v", dir, seq, count, err)
			return
		}
		got := buf[:n]
		sum.add(got)
		for len(got) > 0 {
			if len(expect) == 0 {
				if seq >= count {
					rep.violate("stream", "dir %d: %d trailing bytes past the final message", dir, len(got))
					return
				}
				expect = message(s.Seed, dir, seq, s.MaxMsg)
				seq++
			}
			m := min(len(got), len(expect))
			if !bytes.Equal(got[:m], expect[:m]) {
				rep.violate("corrupt", "dir %d: stream diverges inside message #%d", dir, seq-1)
				r.Close()
				return
			}
			got = got[m:]
			expect = expect[m:]
		}
		if seq >= count && len(expect) == 0 {
			stats.Msgs = count
			return
		}
	}
	stats.Msgs = count
}

// dialAccept establishes a conversation: announce+listen on lp, dial
// from dp. The listen runs concurrently and is always joined; a dial
// failure closes the listener to unblock it.
func dialAccept(ck vclock.Clock, rep *Report, dp, lp xport.Proto, announce, dialAddr string) (dialc, accc xport.Conn, ok bool) {
	lc, err := lp.NewConn()
	if err != nil {
		rep.violate("connect", "listener clone: %v", err)
		return nil, nil, false
	}
	if err := lc.Announce(announce); err != nil {
		rep.violate("connect", "announce %q: %v", announce, err)
		lc.Close()
		return nil, nil, false
	}
	accCh := vclock.NewMailbox[xport.Conn](ck, 1)
	ck.Go(func() {
		nc, err := lc.Listen()
		if err != nil {
			accCh.TrySend(nil)
			return
		}
		accCh.TrySend(nc)
	})
	dc, err := dp.NewConn()
	if err == nil {
		err = dc.Connect(dialAddr)
	}
	if err != nil {
		rep.violate("connect", "dial %q: %v", dialAddr, err)
		lc.Close() // unblocks the pending Listen
		if nc, _ := accCh.Recv(); nc != nil {
			nc.Close()
		}
		if dc != nil {
			dc.Close()
		}
		return nil, nil, false
	}
	nc, _ := accCh.Recv()
	lc.Close()
	if nc == nil {
		rep.violate("connect", "listen returned no conversation for %q", dialAddr)
		dc.Close()
		return nil, nil, false
	}
	return dc, nc, true
}

// etherWorld is the two-machine impaired Ethernet the IP protocols
// run over.
type etherWorld struct {
	seg      *ether.Segment
	st1, st2 *ip.Stack
	a1, a2   ip.Addr
}

func newEtherWorld(ck vclock.Clock, s Scenario) (*etherWorld, error) {
	w := &etherWorld{
		seg: ether.NewSegment("torture0", ether.Profile{
			Latency:   s.Latency,
			Bandwidth: s.Bandwidth,
			Loss:      s.Loss,
			Seed:      s.Seed,
			Impair:    s.Impair,
			Clock:     ck,
		}),
		st1: ip.NewStackClock(ck),
		st2: ip.NewStackClock(ck),
		a1:  ip.Addr{135, 104, 9, 1},
		a2:  ip.Addr{135, 104, 9, 2},
	}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := w.st1.Bind(w.seg.NewInterface("ether0"), w.a1, mask); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.st2.Bind(w.seg.NewInterface("ether0"), w.a2, mask); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *etherWorld) close() {
	w.st1.Close()
	w.st2.Close()
	w.seg.Close()
}

func runIL(ck vclock.Clock, s Scenario, rep *Report) {
	w, err := newEtherWorld(ck, s)
	if err != nil {
		rep.violate("connect", "ether world: %v", err)
		return
	}
	p1, p2 := il.New(w.st1), il.New(w.st2)
	dc, ac, ok := dialAccept(ck, rep, p1, p2, "17008", ip.HostPort(w.a2, 17008))
	if !ok {
		p1.Close()
		p2.Close()
		w.close()
		return
	}
	drive(ck, s, rep, &conv{
		dial:     dc,
		acc:      ac,
		retrans:  func() int64 { return p1.Retransmits.Load() + p2.Retransmits.Load() },
		counts:   w.seg.ImpairCounts,
		schedule: w.seg.Schedule,
		teardown: func() {
			p1.Close()
			p2.Close()
			w.close()
		},
	})
}

func runTCP(ck vclock.Clock, s Scenario, rep *Report) {
	w, err := newEtherWorld(ck, s)
	if err != nil {
		rep.violate("connect", "ether world: %v", err)
		return
	}
	p1, p2 := tcp.New(w.st1), tcp.New(w.st2)
	dc, ac, ok := dialAccept(ck, rep, p1, p2, "564", ip.HostPort(w.a2, 564))
	if !ok {
		p1.Close()
		p2.Close()
		w.close()
		return
	}
	drive(ck, s, rep, &conv{
		dial:     dc,
		acc:      ac,
		stream:   true,
		retrans:  func() int64 { return p1.Retransmits.Load() + p2.Retransmits.Load() },
		counts:   w.seg.ImpairCounts,
		schedule: w.seg.Schedule,
		teardown: func() {
			p1.Close()
			p2.Close()
			w.close()
		},
	})
}

func runURP(ck vclock.Clock, s Scenario, rep *Report) {
	sw := datakit.NewSwitch(medium.Profile{
		Latency:   s.Latency,
		Bandwidth: s.Bandwidth,
		MTU:       2048,
		Loss:      s.Loss,
		Seed:      s.Seed,
		Impair:    s.Impair,
		Clock:     ck,
	})
	h1, err := sw.NewHost("nj/astro/torture-a")
	var h2 *datakit.Host
	if err == nil {
		h2, err = sw.NewHost("nj/astro/torture-b")
	}
	if err != nil {
		rep.violate("connect", "datakit hosts: %v", err)
		sw.Close()
		return
	}
	p1, p2 := datakit.NewProto(h1), datakit.NewProto(h2)
	dc, ac, ok := dialAccept(ck, rep, p1, p2, "torture", "nj/astro/torture-b!torture")
	if !ok {
		sw.Close()
		return
	}
	drive(ck, s, rep, &conv{
		dial:     dc,
		acc:      ac,
		retrans:  func() int64 { return p1.Stats.Retransmits.Load() + p2.Stats.Retransmits.Load() },
		teardown: sw.Close,
	})
}

func runCyclone(ck vclock.Clock, s Scenario, rep *Report) {
	// The Cyclone boards are hardware-reliable (§7): the link
	// contract admits delay variation but not loss, duplication, or
	// damage, so only jitter (and the pacing knobs) applies.
	link := cyclone.NewLink("cyc0", medium.Profile{
		Latency:   s.Latency,
		Bandwidth: s.Bandwidth,
		Seed:      s.Seed,
		Impair:    medium.Impairment{Jitter: s.Impair.Jitter, Record: s.Impair.Record},
		Clock:     ck,
	})
	ea, eb := link.Ends()
	dc, ac, ok := dialAccept(ck, rep, ea, eb, "*", "")
	if !ok {
		link.Close()
		return
	}
	drive(ck, s, rep, &conv{
		dial:     dc,
		acc:      ac,
		teardown: link.Close,
	})
}

// run9P tortures a whole 9P session over IL: a ramfs served across the
// impaired Ethernet, a client writing deterministic blocks through the
// mount protocol and reading them back. Msgs counts write blocks; the
// read-back pass covers the backward direction.
func run9P(ck vclock.Clock, s Scenario, rep *Report) {
	// A 9P message carries at most MaxFData of file data; keep blocks
	// well under it.
	blockMax := min(s.MaxMsg, 4096)
	w, err := newEtherWorld(ck, s)
	if err != nil {
		rep.violate("connect", "ether world: %v", err)
		return
	}
	p1, p2 := il.New(w.st1), il.New(w.st2)
	dc, ac, ok := dialAccept(ck, rep, p1, p2, "17008", ip.HostPort(w.a2, 17008))
	teardown := func() {
		p1.Close()
		p2.Close()
		w.close()
	}
	if !ok {
		teardown()
		return
	}
	// The 9P session can ride a dressed conversation too: Lines wrap
	// the transport under the delimited-message adapter, so every RPC
	// crosses the module stack.
	var dconn, aconn io.ReadWriteCloser = dc, ac
	var dialG, accG []*obs.Group
	if len(s.Mods) > 0 {
		c := &conv{dial: dc, acc: ac}
		dialG, accG = dress(ck, s, rep, c)
		dconn, aconn = c.dial, c.acc
	}
	fs := ramfs.NewClock("torture", ck)
	srvDone := vclock.NewWaitGroup(ck)
	srvDone.Add(1)
	ck.Go(func() {
		defer srvDone.Done()
		// Serve returns when the transport hangs up; the error is the
		// hangup itself, not a violation.
		ninep.ServeClock(ninep.NewDelimConn(aconn), func(uname, aname string) (vfs.Node, error) {
			return fs.Attach(aname)
		}, ck)
	})
	watchdog := ck.AfterFunc(s.Timeout, func() {
		rep.violate("timeout", "9p session did not finish in %v", s.Timeout)
		dconn.Close()
		aconn.Close()
	})
	torture9P(ck, s, rep, dconn, blockMax)
	watchdog.Stop()
	dconn.Close()
	aconn.Close()
	srvDone.Wait()
	rep.Retransmits = p1.Retransmits.Load() + p2.Retransmits.Load()
	rep.Wire = w.seg.ImpairCounts()
	rep.Schedule = w.seg.Schedule()
	teardown()
	if dialG != nil {
		rep.DialMods, rep.AccMods = snapshotGroups(dialG), snapshotGroups(accG)
	}
}

// torture9P is the client side of the 9P scenario. The served tree is
// a ramfs of plain files, so the client opts into windowed transfers —
// the windowed pass below must exercise the real fan-out path.
func torture9P(ck vclock.Clock, s Scenario, rep *Report, dc io.ReadWriteCloser, blockMax int) {
	cl, err := ninep.NewClientConfig(ninep.NewDelimConn(dc), ninep.ClientConfig{FileTree: true, Clock: ck})
	if err != nil {
		rep.violate("9p", "version: %v", err)
		return
	}
	defer cl.Close()
	fid, err := cl.Attach("torture", "")
	if err != nil {
		rep.violate("9p", "attach: %v", err)
		return
	}
	if err := fid.Create("blocks", 0644, vfs.ORDWR); err != nil {
		rep.violate("9p", "create: %v", err)
		return
	}
	wsum, rsum := newStreamSum(), newStreamSum()
	var off int64
	for seq := 0; seq < s.Msgs; seq++ {
		block := message(s.Seed, 0, seq, blockMax)
		n, err := fid.Write(block, off)
		if err != nil || n != len(block) {
			rep.violate("9p", "write block #%d: n=%d err=%v", seq, n, err)
			return
		}
		wsum.add(block)
		off += int64(n)
	}
	rep.Forward.Msgs = s.Msgs
	rep.Forward.SentBytes = wsum.n
	rep.Forward.SentSum = wsum.sum()
	// Read the file back and verify byte identity; the server's copy
	// traveled the impaired wire twice by now.
	var roff int64
	buf := make([]byte, 4096)
	for roff < off {
		n, err := fid.Read(buf, roff)
		if err != nil {
			rep.violate("9p", "read at %d: %v", roff, err)
			return
		}
		if n == 0 {
			rep.violate("9p", "early eof at %d of %d", roff, off)
			return
		}
		rsum.add(buf[:n])
		roff += int64(n)
	}
	rep.Forward.RecvBytes = rsum.n
	rep.Forward.RecvSum = rsum.sum()
	// Windowed pass: one transfer larger than MaxFData fans into the
	// mount driver's sliding window of concurrent fragment RPCs.
	// Under impairment the fragments ride reordered, retransmitted IL
	// messages, so byte identity here tortures the strict offset-order
	// reassembly discipline, not just the serial path above.
	big := make([]byte, 3*ninep.MaxFData+1234)
	for i := range big {
		big[i] = byte(mix64(uint64(s.Seed) + uint64(i)>>3))
	}
	n, err := fid.Write(big, off)
	if err != nil || n != len(big) {
		rep.violate("9p", "windowed write: n=%d err=%v", n, err)
		return
	}
	rbuf := make([]byte, len(big)+ninep.MaxFData) // oversized: EOF truncates
	rn, err := fid.Read(rbuf, off)
	if err != nil {
		rep.violate("9p", "windowed read: %v", err)
		return
	}
	if rn != len(big) || !bytes.Equal(rbuf[:rn], big) {
		rep.violate("9p", "windowed read returned %d bytes, want %d (content %v)", rn, len(big), bytes.Equal(rbuf[:min(rn, len(big))], big[:min(rn, len(big))]))
		return
	}
	off += int64(n)
	d, err := fid.Stat()
	if err != nil {
		rep.violate("9p", "stat: %v", err)
		return
	}
	if int64(d.Length) != off {
		rep.violate("9p", "stat length %d, wrote %d", d.Length, off)
	}
	if err := fid.Clunk(); err != nil {
		rep.violate("9p", "clunk: %v", err)
	}
	// The backward direction is the read-back: mirror it into the
	// report so the checksum invariant compares write vs read.
	rep.Backward = DirStats{
		Msgs:      rep.Forward.Msgs,
		SentBytes: rep.Forward.SentBytes,
		RecvBytes: rep.Forward.RecvBytes,
		SentSum:   rep.Forward.SentSum,
		RecvSum:   rep.Forward.RecvSum,
	}
}
