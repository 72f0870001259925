package il

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// The two machines of every test here: the dialer and the acceptor.
var (
	addr1 = ip.Addr{135, 104, 9, 1}
	addr2 = ip.Addr{135, 104, 9, 2}
)

// onVirtualMachines runs body inside a virtual clock with two machines,
// addr1 and addr2, on one segment of profile prof, their engines tuned
// by tune. Inside Run errors report and return, and teardown happens
// before Run unwinds.
func onVirtualMachines(t *testing.T, prof ether.Profile, tune func(*Proto), body func(v *vclock.Virtual, seg *ether.Segment, p1, p2 *Proto)) {
	v := vclock.NewVirtual()
	v.Run(func() {
		prof.Clock = v
		seg := ether.NewSegment("e0", prof)
		defer seg.Close()
		s1, s2 := ip.NewStack(v), ip.NewStack(v)
		defer s1.Close()
		defer s2.Close()
		mask := ip.Addr{255, 255, 255, 0}
		if _, err := s1.Bind(seg.NewInterface("ether0"), addr1, mask); err != nil {
			t.Error(err)
			return
		}
		if _, err := s2.Bind(seg.NewInterface("ether0"), addr2, mask); err != nil {
			t.Error(err)
			return
		}
		p1, p2 := New(s1), New(s2)
		defer p1.Close()
		defer p2.Close()
		tune(p1)
		tune(p2)
		body(v, seg, p1, p2)
	})
}

// onVirtualPair is onVirtualMachines with a conversation open from the
// dialer to the acceptor.
func onVirtualPair(t *testing.T, prof ether.Profile, body func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn)) {
	onTunedVirtualPair(t, prof, func(*Proto) {}, body)
}

// onTunedVirtualPair is onVirtualPair with tune applied to both engines
// before the conversation opens: how the ablation tests throw a switch.
func onTunedVirtualPair(t *testing.T, prof ether.Profile, tune func(*Proto), body func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn)) {
	onVirtualMachines(t, prof, tune, func(v *vclock.Virtual, _ *ether.Segment, p1, p2 *Proto) {
		lc, dc, sc, err := dialVirtual(v, p1, p2, addr2)
		defer lc.Close()
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		body(v, p1, p2, dc, sc)
	})
}

// dialVirtual opens a conversation from p1 to the listener lc it
// announces on p2, at addr. The caller closes lc, which is returned even
// when the dial fails.
func dialVirtual(v *vclock.Virtual, p1, p2 *Proto, addr ip.Addr) (lc, dc, sc xport.Conn, err error) {
	lc, _ = p2.NewConn()
	if err := lc.Announce("17008"); err != nil {
		return lc, nil, nil, err
	}
	accepted := vclock.NewMailbox[xport.Conn](v, 1)
	v.Go(func() {
		if nc, err := lc.Listen(); err == nil {
			accepted.TrySend(nc)
		}
	})
	dc, _ = p1.NewConn()
	if err := dc.Connect(ip.HostPort(addr, 17008)); err != nil {
		return lc, nil, nil, err
	}
	sc, _ = accepted.Recv()
	return lc, dc, sc, nil
}

// readAll reads n messages from c on a goroutine of its own and returns
// a wait for them.
func readAll(v *vclock.Virtual, c xport.Conn, n int) func() ([][]byte, error) {
	var got [][]byte
	var err error
	wg := vclock.NewWaitGroup(v)
	wg.Add(1)
	v.Go(func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for len(got) < n {
			k, rerr := c.Read(buf)
			if rerr != nil {
				err = rerr
				return
			}
			got = append(got, append([]byte(nil), buf[:k]...))
		}
	})
	return func() ([][]byte, error) {
		wg.Wait()
		return got, err
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		if dc.(*Conn).State() != "Established" {
			t.Errorf("dialer state %s", dc.(*Conn).State())
		}
		buf := make([]byte, 64)
		for _, m := range []struct {
			from, to xport.Conn
			msg      string
		}{{dc, sc, "ping"}, {sc, dc, "pong"}} {
			if _, err := m.from.Write([]byte(m.msg)); err != nil {
				t.Error(err)
				return
			}
			if n, err := m.to.Read(buf); err != nil || string(buf[:n]) != m.msg {
				t.Errorf("read %q, %v; want %q", buf[:n], err, m.msg)
				return
			}
		}
	})
}

func TestDelimitersPreserved(t *testing.T) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		want := []string{"first", "second message", "3"}
		for _, m := range want {
			dc.Write([]byte(m))
		}
		buf := make([]byte, 256)
		for _, m := range want {
			if n, err := sc.Read(buf); err != nil || string(buf[:n]) != m {
				t.Errorf("read %q, %v; want %q", buf[:n], err, m)
				return
			}
		}
	})
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		msg := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB > MTU
		if _, err := dc.Write(msg); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(msg)+100)
		n, err := sc.Read(got)
		if err != nil || n != len(msg) || !bytes.Equal(got[:n], msg) {
			t.Errorf("reassembled %d bytes (%v), want %d (single delimited message)", n, err, len(msg))
		}
	})
}

// TestReliabilityUnderLoss: at 10% loss everything arrives, in order,
// exactly once, and what was lost is resent.
func TestReliabilityUnderLoss(t *testing.T) {
	onVirtualPair(t, ether.Profile{Loss: 0.10, Seed: 7, Bandwidth: 1 << 26}, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		const msgs = 60
		wait := readAll(v, sc, msgs)
		for i := range msgs {
			if _, err := dc.Write(bytes.Repeat([]byte{byte(i)}, 100+i)); err != nil {
				t.Error(err)
				return
			}
		}
		got, err := wait()
		if err != nil {
			t.Error(err)
			return
		}
		for i, m := range got {
			if len(m) != 100+i || m[0] != byte(i) {
				t.Errorf("message %d corrupted: len=%d first=%d", i, len(m), m[0])
				return
			}
		}
		if p1.Retransmits.Load()+p2.Retransmits.Load() == 0 {
			t.Error("nothing was resent at 10% loss")
		}
	})
}

// TestQueryNotBlindRetransmission: under loss the default configuration
// recovers with query/state exchanges, not blind retransmission.
func TestQueryNotBlindRetransmission(t *testing.T) {
	onVirtualPair(t, ether.Profile{Loss: 0.25, Seed: 3, Bandwidth: 1 << 26}, func(v *vclock.Virtual, p1, _ *Proto, dc, sc xport.Conn) {
		wait := readAll(v, sc, 20)
		for range 20 {
			dc.Write(bytes.Repeat([]byte("q"), 200))
		}
		if got, err := wait(); len(got) != 20 {
			t.Errorf("transfer under loss delivered %d of 20 messages (%v)", len(got), err)
		}
		if p1.QueriesSent.Load() == 0 {
			t.Error("no queries sent despite 25% loss — recovery was not query-driven")
		}
	})
}

func TestConnectionRefused(t *testing.T) {
	onVirtualMachines(t, ether.Profile{}, func(*Proto) {}, func(v *vclock.Virtual, _ *ether.Segment, p1, _ *Proto) {
		dc, _ := p1.NewConn()
		defer dc.Close()
		if err := dc.Connect(ip.HostPort(addr2, 9999)); !vfs.SameError(err, vfs.ErrConnRef) { // nobody listening
			t.Errorf("connect to dead port = %v, want %v", err, vfs.ErrConnRef)
		}
	})
}

func TestConnectNoRoute(t *testing.T) {
	onVirtualMachines(t, ether.Profile{}, func(*Proto) {}, func(v *vclock.Virtual, _ *ether.Segment, p1, _ *Proto) {
		dc, _ := p1.NewConn()
		defer dc.Close()
		if err := dc.Connect("10.1.1.1!17008"); err == nil {
			t.Error("connect with no route succeeded")
		}
	})
}

func TestBadAddresses(t *testing.T) {
	onVirtualMachines(t, ether.Profile{}, func(*Proto) {}, func(v *vclock.Virtual, _ *ether.Segment, p1, _ *Proto) {
		dc, _ := p1.NewConn()
		defer dc.Close()
		for _, bad := range []string{"", "!", "host!port", "1.2.3.4!banana", "1.2.3.4!0", "*!17008"} {
			if err := dc.Connect(bad); err == nil {
				t.Errorf("Connect(%q) accepted", bad)
			}
		}
		lc, _ := p1.NewConn()
		defer lc.Close()
		if err := lc.Announce("nonsense"); err == nil {
			t.Error("Announce(nonsense) accepted")
		}
	})
}

func TestAnnouncePortCollision(t *testing.T) {
	onVirtualMachines(t, ether.Profile{}, func(*Proto) {}, func(v *vclock.Virtual, _ *ether.Segment, p1, _ *Proto) {
		a, _ := p1.NewConn()
		defer a.Close()
		if err := a.Announce("564"); err != nil {
			t.Error(err)
			return
		}
		b, _ := p1.NewConn()
		defer b.Close()
		if err := b.Announce("564"); err != xport.ErrInUse {
			t.Errorf("duplicate announce = %v", err)
		}
	})
}

// TestCloseDeliversEOF: the reader drains what was written before the
// close, and its next read sees the hangup.
func TestCloseDeliversEOF(t *testing.T) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		dc.Write([]byte("bye"))
		dc.Close()
		buf := make([]byte, 64)
		if n, err := sc.Read(buf); err != nil || string(buf[:n]) != "bye" {
			t.Errorf("drain read %q, %v", buf[:n], err)
			return
		}
		if n, err := sc.Read(buf); err == nil {
			t.Errorf("read %q after the close, want the hangup", buf[:n])
		}
	})
}

func TestAdaptiveRTTTracksMedium(t *testing.T) {
	// On the virtual clock the 20ms medium and the ten 30ms pacing
	// gaps are simulated, so the estimator converges in microseconds
	// of wall time and the measured RTT is exact.
	onVirtualPair(t, ether.Profile{Latency: 20 * time.Millisecond, Bandwidth: 1 << 26}, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		v.Go(func() {
			buf := make([]byte, 4096)
			for {
				if _, err := sc.Read(buf); err != nil {
					return
				}
			}
		})
		for range 10 {
			dc.Write([]byte("measure me"))
			v.Sleep(30 * time.Millisecond)
		}
		c := dc.(*Conn)
		c.Mu.Lock()
		rtt := c.RTT.SRTT
		c.Mu.Unlock()
		if rtt < 10*time.Millisecond {
			t.Errorf("smoothed RTT %v on a 20ms-latency medium", rtt)
		}
		if rtt > 500*time.Millisecond {
			t.Errorf("smoothed RTT %v absurdly high", rtt)
		}
	})
}

func TestSequentialConnections(t *testing.T) {
	onVirtualMachines(t, ether.Profile{}, func(*Proto) {}, func(v *vclock.Virtual, _ *ether.Segment, p1, p2 *Proto) {
		lc, _ := p2.NewConn()
		defer lc.Close()
		if err := lc.Announce("17008"); err != nil {
			t.Error(err)
			return
		}
		for i := range 5 {
			v.Go(func() {
				nc, err := lc.Listen()
				if err != nil {
					return
				}
				buf := make([]byte, 64)
				n, _ := nc.Read(buf)
				nc.Write(buf[:n])
				nc.Close()
			})
			dc, _ := p1.NewConn()
			if err := dc.Connect(ip.HostPort(addr2, 17008)); err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			dc.Write([]byte("hi"))
			buf := make([]byte, 64)
			n, err := dc.Read(buf)
			dc.Close()
			if err != nil || string(buf[:n]) != "hi" {
				t.Errorf("echo %d: %q, %v", i, buf[:n], err)
				return
			}
		}
	})
}

func TestStatusAndAddrs(t *testing.T) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		if got, want := dc.LocalAddr(), addr1.String()+"!"; !strings.HasPrefix(got, want) {
			t.Errorf("dialer local %q, want %s…", got, want)
		}
		if got, want := dc.RemoteAddr(), ip.HostPort(addr2, 17008); got != want {
			t.Errorf("dialer remote %q, want %q", got, want)
		}
		for _, c := range []xport.Conn{dc, sc} {
			if s := c.Status(); !strings.HasPrefix(s, "Established") {
				t.Errorf("status %q", s)
			}
		}
	})
}

// marshalBytes is marshalBlock for a test that wants the packet's bytes:
// a copy, with the block freed.
func marshalBytes(h header, data []byte) []byte {
	b := marshalBlock(h, data)
	defer b.Free()
	return bytes.Clone(b.Bytes())
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(typ, spec byte, src, dst uint16, id, ack uint32, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		h := header{typ: typ % 6, spec: spec, src: src, dst: dst, id: id, ack: ack}
		g, d, ok := unmarshal(marshalBytes(h, data))
		return ok && g == h && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	pkt := marshalBytes(header{typ: msgData, src: 1, dst: 2, id: 3, ack: 4}, []byte("x"))
	pkt[6] ^= 0x10
	if _, _, ok := unmarshal(pkt); ok {
		t.Error("corrupted IL packet accepted (checksum)")
	}
	if _, _, ok := unmarshal(pkt[:10]); ok {
		t.Error("short IL packet accepted")
	}
}

// blockedWriter cuts the acceptor off the wire, then writes Window+5
// copies of msg. A simulated second later it reports how many writes
// returned and what was unacknowledged, closes the conversation and
// waits for the writer to give up.
func blockedWriter(t *testing.T, size func(c *Conn) int) (sent int, msgs uint32, pkts int) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, p2 *Proto, dc, _ xport.Conn) {
		p2.Stack.Close()
		c := dc.(*Conn)
		msg := make([]byte, size(c))
		wg := vclock.NewWaitGroup(v)
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			for range Window + 5 {
				if _, err := dc.Write(msg); err != nil {
					return
				}
				sent++
			}
		})
		v.Sleep(time.Second)
		c.Mu.Lock()
		msgs, pkts = c.sndMsgs, len(c.unacked)
		c.Mu.Unlock()
		dc.Close()
		wg.Wait()
	})
	return sent, msgs, pkts
}

// TestWindowLimitsOutstandingMessages: with the peer gone, a writer
// blocks once Window messages are unacknowledged.
func TestWindowLimitsOutstandingMessages(t *testing.T) {
	sent, msgs, pkts := blockedWriter(t, func(*Conn) int { return 1 })
	if sent != Window || msgs != Window || pkts != Window {
		t.Errorf("blocked after %d writes with %d messages in %d packets unacknowledged; want %d of each",
			sent, msgs, pkts, Window)
	}
}

// TestWindowCountsMessagesNotPackets: with the peer gone, a writer of
// three-packet messages blocks after exactly Window messages — sixty
// packets — not after twenty packets.
func TestWindowCountsMessagesNotPackets(t *testing.T) {
	sent, msgs, pkts := blockedWriter(t, func(c *Conn) int { return 3 * (c.proto.Stack.MTUFor(c.Raddr) - HdrLen) })
	if sent != Window || msgs != Window || pkts != 3*Window {
		t.Errorf("blocked after %d writes with %d messages in %d packets unacknowledged; want %d, %d, %d",
			sent, msgs, pkts, Window, Window, 3*Window)
	}
}

// burst runs one conversation on the virtual LAN. After warmLAN it
// writes msgs messages of per packets each at once, and the acceptor
// reads them all back in order. lose names packets of the burst, by
// position, whose first copy vanishes between the wire and the
// acceptor's IL. It reports the two engines once the last message has
// been read.
func burst(t *testing.T, msgs, per int, lose ...uint32) (p1, p2 *Proto) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, e1, e2 *Proto, dc, sc xport.Conn) {
		p1, p2 = e1, e2
		warmLAN(v, dc, sc)
		buf := make([]byte, 64<<10)
		c := dc.(*Conn)
		c.Mu.Lock()
		first, rto := c.sndNext, c.rtoLocked()
		c.Mu.Unlock()
		if rto != minRTO {
			t.Errorf("timeout %v after the warm-up, want the floor %v", rto, minRTO)
		}
		dropFirst(p2, func(h header) bool { return h.typ == msgData && slices.Contains(lose, h.id-first) })

		size := per * (c.proto.Stack.MTUFor(c.Raddr) - HdrLen)
		v.Go(func() {
			msg := make([]byte, size)
			for i := range msgs {
				msg[0] = byte(i)
				if _, err := dc.Write(msg); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		})
		for i := range msgs {
			n, err := sc.Read(buf)
			if err != nil || n != size || int(buf[0]) != i {
				t.Errorf("message %d: read %d bytes, first %d, %v", i, n, buf[0], err)
				return
			}
		}
	})
	return p1, p2
}

// TestQueryResendsOnlyWhatWasLost: two packets of a thirty-packet burst
// are lost. The query's answer proves the first lost, the ack of its
// resend uncovers the second, and nothing the peer already had is sent
// again.
func TestQueryResendsOnlyWhatWasLost(t *testing.T) {
	p1, p2 := burst(t, 10, 3, 5, 17)
	if t.Failed() {
		return
	}
	if r, d, q := p1.Retransmits.Load(), p2.DupsReceived.Load(), p1.QueriesSent.Load(); r != 2 || d != 0 || q == 0 {
		t.Errorf("2 packets lost: %d retransmits, %d duplicates received, %d queries; want 2, 0, some", r, d, q)
	}
}

// TestCleanWireCarriesNoRetransmissions: the window's twenty messages
// of three packets at once on an unimpaired 10 Mb/s segment, where the
// first ack queues behind 70 ms of the sender's own packets and the
// timeout is 10 ms. A query fires;
// its answer proves nothing lost, so nothing is resent and nothing
// arrives twice. Then the deepest burst the window admits, twenty
// messages of 44 packets: the segment's transmit queue must hold it,
// or the sender inflicts the loss itself.
func TestCleanWireCarriesNoRetransmissions(t *testing.T) {
	for _, per := range []int{3, 44} {
		p1, p2 := burst(t, Window+5, per)
		if t.Failed() {
			return
		}
		if r, d, o := p1.Retransmits.Load(), p2.DupsReceived.Load(), p2.OutOfWindow.Load(); r != 0 || d != 0 || o != 0 {
			t.Errorf("clean wire, %d packets a message: %d retransmits, %d duplicates, %d out of window (%d queries)",
				per, r, d, o, p1.QueriesSent.Load())
		}
	}
}

// warmLAN runs five spaced one-byte messages over a virtual LAN pair,
// which brings the dialer's timeout down to its floor.
func warmLAN(v *vclock.Virtual, dc, sc xport.Conn) {
	buf := make([]byte, 64)
	for range 5 {
		dc.Write([]byte{0})
		sc.Read(buf)
		v.Sleep(30 * time.Millisecond)
	}
}

// TestAcksEndAQuery: a query's state message is lost, and a plain ack
// then covers everything the query asked about. That ends the query, so
// when a later message is lost the next timeout asks afresh and one
// query recovers it. A query left open would be answered with its old
// bound, prove nothing lost, and cost one more timeout.
func TestAcksEndAQuery(t *testing.T) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		warmLAN(v, dc, sc)
		c := dc.(*Conn)
		c.Mu.Lock()
		a := c.sndNext
		c.Mu.Unlock()
		// A's ack and the first state message vanish before the dialer;
		// C's first copy before the acceptor.
		dropFirst(p1, func(h header) bool { return h.typ == msgAck && h.ack == a || h.typ == msgState })
		dropFirst(p2, func(h header) bool { return h.typ == msgData && h.id == a+2 })
		read := func(want string) {
			buf := make([]byte, 64)
			if n, err := sc.Read(buf); err != nil || string(buf[:n]) != want {
				t.Errorf("read %q, %v; want %q", buf[:n], err, want)
			}
		}
		dc.Write([]byte("A"))
		read("A")
		c.Mu.Lock()
		due := c.waitFrom.Add(c.rtoLocked())
		c.Mu.Unlock()
		// The query about A has gone out and its answer is lost; B's ack
		// covers A before the query is repeated.
		v.SleepUntil(due.Add(time.Millisecond))
		dc.Write([]byte("B"))
		read("B")
		v.Sleep(time.Millisecond)
		q := p1.QueriesSent.Load()
		dc.Write([]byte("C"))
		read("C")
		if q = p1.QueriesSent.Load() - q; q != 1 {
			t.Errorf("a lost message took %d queries to recover, want 1", q)
		}
	})
}

// TestStateAckIsNotTimed: an acknowledgement that arrives in the state
// message answering our query waited out our timeout, and one in the
// peer's query waited out the peer's; neither is a round-trip sample
// (Karn's rule, as for a retransmission). A plain ack is one.
func TestStateAckIsNotTimed(t *testing.T) {
	for _, m := range []struct {
		typ  byte
		name string
	}{{msgState, "state"}, {msgQuery, "the peer's query"}, {msgAck, "plain ack"}} {
		onVirtualPair(t, lan, func(v *vclock.Virtual, _, p2 *Proto, dc, sc xport.Conn) {
			warmLAN(v, dc, sc)
			// Packets for the peer now reach its interface and stop there.
			p2.Stack.Close()
			c := dc.(*Conn)
			c.Mu.Lock()
			a, srtt := c.sndNext, c.RTT.SRTT
			c.Mu.Unlock()
			dc.Write([]byte("A"))
			v.Sleep(5 * time.Millisecond)
			c.input(header{typ: m.typ, ack: a}, nil)
			c.Mu.Lock()
			defer c.Mu.Unlock()
			if sampled := c.RTT.SRTT != srtt; c.sndUna != a+1 || sampled != (m.typ == msgAck) {
				t.Errorf("%s: sndUna %d (want %d), smoothed RTT %v → %v",
					m.name, c.sndUna, a+1, srtt, c.RTT.SRTT)
			}
		})
	}
}

// TestLateStateAnswersItsOwnQuery: the dialer asks about A twice, and
// the state for the first query closes the episode. B is written and
// asked about, and only then does the state for the second query about
// A arrive. It says the peer lacked what followed A when that query
// was asked, before B was sent, so it proves nothing about B and
// nothing is resent. Taken for the answer to B's query, it would prove
// B lost.
func TestLateStateAnswersItsOwnQuery(t *testing.T) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		warmLAN(v, dc, sc)
		// The peer hears nothing from here on; its states are written
		// below.
		p2.Stack.Close()
		c := dc.(*Conn)
		asked := func() byte {
			c.Mu.Lock()
			defer c.Mu.Unlock()
			return c.tag
		}
		c.Mu.Lock()
		a, rto := c.sndNext, c.rtoLocked()
		c.Mu.Unlock()
		dc.Write([]byte("A"))
		v.Sleep(rto + rto/2)
		a1 := asked()
		v.Sleep(rto)
		a2 := asked()
		c.input(header{typ: msgState, spec: a1, ack: a}, nil)
		dc.Write([]byte("B"))
		v.Sleep(rto + rto/2)
		if b := asked(); a1 == a2 || a2 == b {
			t.Errorf("queries tagged %d, %d, %d; want three tags", a1, a2, b)
		}
		c.input(header{typ: msgState, spec: a2, ack: a}, nil)
		if r := p1.Retransmits.Load(); r != 0 {
			t.Errorf("a late state resent %d packets, want none", r)
		}
	})
}

// TestCorruptionOnTheWireIsDetected is the end-to-end argument as a
// regression test: a promiscuous repeater station re-injects every IL
// packet it sees with one bit flipped in the IL header region —
// corruption introduced *above* the hardware CRC, as by a broken
// bridge or bad gateway memory, which is precisely what IL's
// whole-packet checksum exists to catch (§3). Every flipped replay
// must be rejected (ChecksumErrs), and the byte stream delivered to
// the application must still match exactly.
func TestCorruptionOnTheWireIsDetected(t *testing.T) {
	onVirtualMachines(t, ether.Profile{}, func(*Proto) {}, func(v *vclock.Virtual, seg *ether.Segment, p1, p2 *Proto) {
		// The repeater: taps everything, re-injects IL packets bit-flipped.
		atk := seg.NewInterface("ether-tap")
		tap, err := atk.OpenConn()
		if err != nil {
			t.Error(err)
			return
		}
		defer tap.Close()
		inj, err := atk.OpenConn()
		if err != nil {
			t.Error(err)
			return
		}
		defer inj.Close()
		inj.SetType(ether.TypeIP)
		var replays int64
		tap.SetDeliver(func(frame []byte) {
			if len(frame) < ether.HdrLen+ip.HdrLen+HdrLen {
				return
			}
			if et := int(frame[12])<<8 | int(frame[13]); et != ether.TypeIP {
				return
			}
			if frame[ether.HdrLen+9] != ip.ProtoIL {
				return
			}
			var dst ether.Addr
			copy(dst[:], frame[0:6])
			cp := append([]byte(nil), frame[ether.HdrLen:]...)
			cp[ip.HdrLen+4] ^= 0x04 // flip a bit in the IL type byte
			replays++
			inj.Transmit(dst, cp)
		})
		tap.SetType(ether.TypeAll)
		tap.SetPromiscuous(true)

		lc, dc, sc, err := dialVirtual(v, p1, p2, addr2)
		defer lc.Close()
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		payload := bytes.Repeat([]byte("end-to-end "), 512)
		wait := readAll(v, sc, len(payload)/512)
		for off := 0; off < len(payload); off += 512 {
			if _, err := dc.Write(payload[off : off+512]); err != nil {
				t.Error(err)
				return
			}
		}
		got, _ := wait()
		if !bytes.Equal(bytes.Join(got, nil), payload) {
			t.Errorf("delivered stream diverged under corruption (%d messages)", len(got))
			return
		}
		// The last acks and their replays are still on the wire; once it
		// is quiet every replay has reached an engine.
		v.Sleep(time.Second)
		rejects := p1.ChecksumErrs.Load() + p2.ChecksumErrs.Load()
		if replays == 0 {
			t.Error("repeater never replayed a packet; test exercised nothing")
		} else if rejects != replays {
			t.Errorf("%d replays but %d checksum rejects: a corrupted packet was swallowed silently or accepted", replays, rejects)
		}
	})
}

// TestUnmarshalRejectsEverySingleBitFlip proves the checksum detects
// all single-bit corruption (the Internet checksum's guarantee): no
// flipped packet may parse.
func TestUnmarshalRejectsEverySingleBitFlip(t *testing.T) {
	pkt := marshalBytes(header{typ: msgData, spec: specEOM, src: 17008, dst: 5757, id: 99, ack: 42},
		[]byte("the quick brown fox jumps over the lazy dog"))
	if _, _, ok := unmarshal(pkt); !ok {
		t.Fatal("pristine packet rejected")
	}
	for bit := 0; bit < len(pkt)*8; bit++ {
		cp := append([]byte(nil), pkt...)
		cp[bit/8] ^= 1 << (bit % 8)
		if _, _, ok := unmarshal(cp); ok {
			t.Fatalf("packet with bit %d flipped accepted", bit)
		}
	}
}

// TestLoopbackBothWaysOnVirtualClock: a conversation with the machine's
// own address, both ends writing two windows of messages at once. Every
// packet rides the stack's loopback queue; delivered on the sender's
// goroutine instead, the first ack would take the sending conversation's
// lock a second time and the run would hang, which the wall-clock guard
// turns into a failure.
func TestLoopbackBothWaysOnVirtualClock(t *testing.T) {
	const msgs, size = 2 * Window, 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := vclock.NewVirtual()
		v.Run(func() {
			seg := ether.NewSegment("e0", ether.Profile{Clock: v})
			defer seg.Close()
			st := ip.NewStack(v)
			defer st.Close()
			a := ip.Addr{135, 104, 9, 1}
			if _, err := st.Bind(seg.NewInterface("ether0"), a, ip.Addr{255, 255, 255, 0}); err != nil {
				t.Error(err)
				return
			}
			p := New(st)
			defer p.Close()
			lc, dc, sc, err := dialVirtual(v, p, p, a)
			defer lc.Close()
			if err != nil {
				t.Error(err)
				return
			}
			defer dc.Close()
			defer sc.Close()
			wg := vclock.NewWaitGroup(v)
			for i, end := range [][2]xport.Conn{{dc, sc}, {sc, dc}} {
				msg := func(j int) []byte { return bytes.Repeat([]byte{byte(i), byte(j)}, size/2) }
				wg.Add(2)
				v.Go(func() {
					defer wg.Done()
					for j := range msgs {
						if _, err := end[0].Write(msg(j)); err != nil {
							t.Errorf("end %d write %d: %v", i, j, err)
							return
						}
					}
				})
				v.Go(func() {
					defer wg.Done()
					buf := make([]byte, 2*size)
					for j := range msgs {
						n, err := end[1].Read(buf)
						if err != nil || !bytes.Equal(buf[:n], msg(j)) {
							t.Errorf("end %d: message %d arrived damaged or out of order (%d bytes, %v)", i, j, n, err)
							return
						}
					}
				})
			}
			wg.Wait()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second): //netvet:ignore realtime a lock taken twice stops the virtual clock itself; only the host's can notice
		t.Fatal("a conversation with the machine's own address hung (a sender's lock taken again on its own goroutine?)")
	}
}
