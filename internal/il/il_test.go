package il

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// pair builds two machines with IL stacks on one segment.
func pair(t *testing.T, prof ether.Profile) (*Proto, *Proto, ip.Addr, ip.Addr) {
	t.Helper()
	seg := ether.NewSegment("e0", prof)
	t.Cleanup(seg.Close)
	s1, s2 := ip.NewStack(), ip.NewStack()
	a1 := ip.Addr{135, 104, 9, 1}
	a2 := ip.Addr{135, 104, 9, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := s1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close(); s2.Close() })
	p1, p2 := New(s1), New(s2)
	// Engine teardown kills straggling conversations so their timers
	// don't outlive the test.
	t.Cleanup(func() { p1.Close(); p2.Close() })
	return p1, p2, a1, a2
}

// connect establishes a conversation from p1 to an announced port on p2.
func connect(t *testing.T, p1, p2 *Proto, a2 ip.Addr) (xport.Conn, xport.Conn) {
	t.Helper()
	lc, _ := p2.NewConn()
	if err := lc.Announce("17008"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	acceptCh := make(chan xport.Conn, 1)
	go func() {
		nc, err := lc.Listen()
		if err == nil {
			acceptCh <- nc
		}
	}()
	dc, _ := p1.NewConn()
	if err := dc.Connect(ip.HostPort(a2, 17008)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	select {
	case sc := <-acceptCh:
		t.Cleanup(func() { sc.Close() })
		return dc, sc
	case <-time.After(5 * time.Second):
		t.Fatal("listen never returned")
		return nil, nil
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	if dc.(*Conn).State() != "Established" {
		t.Errorf("dialer state %s", dc.(*Conn).State())
	}
	if _, err := dc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := sc.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	n, err = dc.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("dialer read %q, %v", buf[:n], err)
	}
}

func TestDelimitersPreserved(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	dc.Write([]byte("first"))
	dc.Write([]byte("second message"))
	dc.Write([]byte("3"))
	buf := make([]byte, 256)
	for _, want := range []string{"first", "second message", "3"} {
		n, err := sc.Read(buf)
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("read %q, %v; want %q", buf[:n], err, want)
		}
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	msg := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB > MTU
	if _, err := dc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg)+100)
	n, err := sc.Read(got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msg) || !bytes.Equal(got[:n], msg) {
		t.Fatalf("reassembled %d bytes, want %d (single delimited message)", n, len(msg))
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	// 10% loss: everything must still arrive, in order, exactly once.
	p1, p2, _, a2 := pair(t, ether.Profile{Loss: 0.10, Seed: 7, Bandwidth: 1 << 26})
	dc, sc := connect(t, p1, p2, a2)
	const msgs = 60
	var wg sync.WaitGroup
	wg.Add(1)
	var recvErr error
	var got [][]byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for len(got) < msgs {
			n, err := sc.Read(buf)
			if err != nil {
				recvErr = err
				return
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
	}()
	for i := range msgs {
		msg := bytes.Repeat([]byte{byte(i)}, 100+i)
		if _, err := dc.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	for i, m := range got {
		if len(m) != 100+i || m[0] != byte(i) {
			t.Fatalf("message %d corrupted: len=%d first=%d", i, len(m), m[0])
		}
	}
	if p1.Retransmits.Load() == 0 && p2.Retransmits.Load() == 0 {
		t.Log("note: no retransmissions were needed (loss pattern missed data)")
	}
}

func TestQueryNotBlindRetransmission(t *testing.T) {
	// Under loss, the default configuration must recover via
	// query/state exchanges, not periodic blind retransmission.
	p1, p2, _, a2 := pair(t, ether.Profile{Loss: 0.25, Seed: 3, Bandwidth: 1 << 26})
	dc, sc := connect(t, p1, p2, a2)
	done := make(chan bool)
	go func() {
		buf := make([]byte, 4096)
		count := 0
		for count < 20 {
			if _, err := sc.Read(buf); err != nil {
				break
			}
			count++
		}
		done <- true
	}()
	for range 20 {
		dc.Write(bytes.Repeat([]byte("q"), 200))
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("transfer did not complete under loss")
	}
	if p1.QueriesSent.Load() == 0 {
		t.Error("no queries sent despite 25% loss — recovery was not query-driven")
	}
}

func TestConnectionRefused(t *testing.T) {
	p1, _, _, a2 := pair(t, ether.Profile{})
	dc, _ := p1.NewConn()
	err := dc.Connect(ip.HostPort(a2, 9999)) // nobody listening
	if !vfs.SameError(err, vfs.ErrConnRef) {
		t.Errorf("connect to dead port = %v, want %v", err, vfs.ErrConnRef)
	}
	dc.Close()
}

func TestConnectNoRoute(t *testing.T) {
	p1, _, _, _ := pair(t, ether.Profile{})
	dc, _ := p1.NewConn()
	if err := dc.Connect("10.1.1.1!17008"); err == nil {
		t.Error("connect with no route succeeded")
	}
	dc.Close()
}

func TestBadAddresses(t *testing.T) {
	p1, _, _, _ := pair(t, ether.Profile{})
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
}

func TestAnnouncePortCollision(t *testing.T) {
	p1, _, _, _ := pair(t, ether.Profile{})
	a, _ := p1.NewConn()
	if err := a.Announce("564"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _ := p1.NewConn()
	defer b.Close()
	if err := b.Announce("564"); err != xport.ErrInUse {
		t.Errorf("duplicate announce = %v", err)
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	dc.Write([]byte("bye"))
	dc.Close()
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("drain read %q, %v", buf[:n], err)
	}
	// Subsequent read sees EOF (hangup) once the close arrives.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := sc.Read(buf); err != nil {
			return // EOF or closed: both acceptable
		}
	}
	t.Fatal("reader never saw the close")
}

// onVirtualPair runs body inside a virtual clock with two machines on
// one segment of profile prof and a conversation open between them. It
// is pair()/connect() for simulated time: inside Run a t.Fatal (Goexit)
// would strand the scheduler token, so errors report and return, and
// teardown happens before Run unwinds.
func onVirtualPair(t *testing.T, prof ether.Profile, body func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn)) {
	onTunedVirtualPair(t, prof, func(*Proto) {}, body)
}

// onTunedVirtualPair is onVirtualPair with tune applied to both engines
// before the conversation opens: how the ablation tests throw a switch.
func onTunedVirtualPair(t *testing.T, prof ether.Profile, tune func(*Proto), body func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn)) {
	v := vclock.NewVirtual()
	v.Run(func() {
		prof.Clock = v
		seg := ether.NewSegment("e0", prof)
		defer seg.Close()
		s1, s2 := ip.NewStackClock(v), ip.NewStackClock(v)
		defer s1.Close()
		defer s2.Close()
		a2 := ip.Addr{135, 104, 9, 2}
		mask := ip.Addr{255, 255, 255, 0}
		if _, err := s1.Bind(seg.NewInterface("ether0"), ip.Addr{135, 104, 9, 1}, mask); err != nil {
			t.Error(err)
			return
		}
		if _, err := s2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
			t.Error(err)
			return
		}
		p1, p2 := New(s1), New(s2)
		defer p1.Close()
		defer p2.Close()
		tune(p1)
		tune(p2)

		lc, dc, sc, err := dialVirtual(v, p1, p2, a2)
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

// dialVirtual is connect() inside a virtual clock's Run: a conversation
// from p1 to the listener lc it announces on p2, at addr. The caller
// closes lc, which is returned even when the dial fails.
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
	p1, p2, _, a2 := pair(t, ether.Profile{})
	lc, _ := p2.NewConn()
	if err := lc.Announce("17008"); err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for i := range 5 {
		go func() {
			nc, err := lc.Listen()
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			n, _ := nc.Read(buf)
			nc.Write(buf[:n])
			nc.Close()
		}()
		dc, _ := p1.NewConn()
		if err := dc.Connect(ip.HostPort(a2, 17008)); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		dc.Write([]byte("hi"))
		buf := make([]byte, 64)
		n, err := dc.Read(buf)
		if err != nil || string(buf[:n]) != "hi" {
			t.Fatalf("echo %d: %q, %v", i, buf[:n], err)
		}
		dc.Close()
	}
}

func TestStatusAndAddrs(t *testing.T) {
	p1, p2, a1, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	if got := dc.LocalAddr(); got == "" || got[:len(a1.String())] != a1.String() {
		t.Errorf("dialer local %q", got)
	}
	if got := dc.RemoteAddr(); got[:len(a2.String())] != a2.String() {
		t.Errorf("dialer remote %q", got)
	}
	if s := dc.Status(); s == "" || s[:11] != "Established" {
		t.Errorf("status %q", s)
	}
	if s := sc.Status(); s[:11] != "Established" {
		t.Errorf("server status %q", s)
	}
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(typ, spec byte, src, dst uint16, id, ack uint32, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		h := header{typ: typ % 6, spec: spec, src: src, dst: dst, id: id, ack: ack}
		g, d, ok := unmarshal(marshalBlock(h, data).Bytes())
		return ok && g == h && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	pkt := marshalBlock(header{typ: msgData, src: 1, dst: 2, id: 3, ack: 4}, []byte("x")).Bytes()
	pkt[6] ^= 0x10
	if _, _, ok := unmarshal(pkt); ok {
		t.Error("corrupted IL packet accepted (checksum)")
	}
	if _, _, ok := unmarshal(pkt[:10]); ok {
		t.Error("short IL packet accepted")
	}
}

func TestWindowLimitsOutstandingMessages(t *testing.T) {
	// With the peer not reading and acks still flowing, the sender
	// may run ahead; but with the *network* cut (loss=1 after
	// setup we can't do easily), instead verify the writer blocks
	// once Window messages are unacked: use a huge-latency medium.
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	_ = sc
	// Now make every data packet vanish by closing the server stack's
	// segment... simplest: write from a conn whose peer is gone.
	sc.(*Conn).proto.Stack.Close()
	done := make(chan int, 1)
	go func() {
		sent := 0
		for range Window + 5 {
			if _, err := dc.Write([]byte("x")); err != nil {
				break
			}
			sent++
		}
		done <- sent
	}()
	select {
	case n := <-done:
		t.Fatalf("writer never blocked; sent %d", n)
	case <-time.After(300 * time.Millisecond):
		// Blocked, as required. Unblock by closing.
		dc.Close()
		<-done
	}
}

// TestWindowCountsMessagesNotPackets: with the peer gone, a writer of
// three-packet messages blocks after exactly Window messages — sixty
// packets — not after twenty packets.
func TestWindowCountsMessagesNotPackets(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2)
	sc.(*Conn).proto.Stack.Close()
	c := dc.(*Conn)
	msg := make([]byte, 3*(c.proto.Stack.MTUFor(c.Raddr)-HdrLen))
	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range Window + 5 {
			if _, err := dc.Write(msg); err != nil {
				return
			}
			sent.Add(1)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < Window && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatalf("writer never blocked; sent %d", sent.Load())
	case <-time.After(300 * time.Millisecond):
	}
	c.Mu.Lock()
	msgs, pkts := c.sndMsgs, len(c.unacked)
	c.Mu.Unlock()
	if sent.Load() != Window || msgs != Window || pkts != 3*Window {
		t.Errorf("blocked after %d writes with %d messages in %d packets unacknowledged; want %d, %d, %d",
			sent.Load(), msgs, pkts, Window, Window, 3*Window)
	}
	dc.Close()
	<-done
}

// burst runs one conversation on a virtual 10 Mb/s segment. Five spaced
// one-byte messages bring the dialer's timeout down to its floor; then
// it writes msgs messages of per packets each at once, and the acceptor
// reads them all back in order. lose names packets of the burst, by
// position, whose first copy vanishes between the wire and the
// acceptor's IL. It reports the two engines once the last message has
// been read.
func burst(t *testing.T, msgs, per int, lose ...uint32) (p1, p2 *Proto) {
	prof := ether.Profile{Latency: 200 * time.Microsecond, Bandwidth: 10_000_000 / 8}
	onVirtualPair(t, prof, func(v *vclock.Virtual, e1, e2 *Proto, dc, sc xport.Conn) {
		p1, p2 = e1, e2
		buf := make([]byte, 64<<10)
		for range 5 {
			dc.Write([]byte{0})
			sc.Read(buf)
			v.Sleep(30 * time.Millisecond)
		}
		c := dc.(*Conn)
		c.Mu.Lock()
		first, rto := c.sndNext, c.rtoLocked()
		c.Mu.Unlock()
		if rto != minRTO {
			t.Errorf("timeout %v after the warm-up, want the floor %v", rto, minRTO)
		}
		// The scripted loss: the packet crossed the wire and is
		// dropped where the acceptor's IL would have taken it.
		lost := make(map[uint32]bool)
		p2.Stack.Register(ip.ProtoIL, func(src, dst ip.Addr, payload []byte) {
			if h, _, ok := unmarshal(payload); ok && h.typ == msgData && !lost[h.id] {
				for _, i := range lose {
					if h.id == first+i {
						lost[h.id] = true
						return
					}
				}
			}
			p2.recv(src, dst, payload)
		})

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

// TestCorruptionOnTheWireIsDetected is the end-to-end argument as a
// regression test: a promiscuous repeater station re-injects every IL
// packet it sees with one bit flipped in the IL header region —
// corruption introduced *above* the hardware CRC, as by a broken
// bridge or bad gateway memory, which is precisely what IL's
// whole-packet checksum exists to catch (§3). Every flipped replay
// must be rejected (ChecksumErrs), and the byte stream delivered to
// the application must still match exactly.
func TestCorruptionOnTheWireIsDetected(t *testing.T) {
	seg := ether.NewSegment("e0", ether.Profile{})
	t.Cleanup(seg.Close)
	s1, s2 := ip.NewStack(), ip.NewStack()
	a1 := ip.Addr{135, 104, 9, 1}
	a2 := ip.Addr{135, 104, 9, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := s1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close(); s2.Close() })
	p1, p2 := New(s1), New(s2)
	t.Cleanup(func() { p1.Close(); p2.Close() })

	// The repeater: taps everything, re-injects IL packets bit-flipped.
	atk := seg.NewInterface("ether-tap")
	tap, err := atk.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tap.Close() })
	inj, err := atk.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inj.Close() })
	inj.SetType(ether.TypeIP)
	var replays atomic.Int64
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
		replays.Add(1)
		inj.Transmit(dst, cp)
	})
	tap.SetType(ether.TypeAll)
	tap.SetPromiscuous(true)

	dc, sc := connect(t, p1, p2, a2)
	payload := bytes.Repeat([]byte("end-to-end "), 512)
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for len(got) < len(payload) {
			n, err := sc.Read(buf)
			if err != nil {
				return
			}
			got = append(got, buf[:n]...)
		}
	}()
	for off := 0; off < len(payload); off += 512 {
		if _, err := dc.Write(payload[off : off+512]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered stream diverged under corruption (%d/%d bytes)", len(got), len(payload))
	}
	// The tap's frames arrive through its interface's reader, a
	// goroutine of its own that may not have run yet, and replays of
	// the final acks may still be in flight; wait for the wire to
	// quiesce before accounting.
	rejects := func() int64 { return p1.ChecksumErrs.Load() + p2.ChecksumErrs.Load() }
	deadline := time.Now().Add(2 * time.Second)
	for (replays.Load() == 0 || rejects() != replays.Load()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if replays.Load() == 0 {
		t.Fatal("repeater never replayed a packet; test exercised nothing")
	}
	if rejects() == 0 {
		t.Fatal("no corrupted packet was rejected by the IL checksum")
	}
	if rejects() != replays.Load() {
		t.Errorf("%d replays but %d checksum rejects: a corrupted packet was swallowed silently or accepted", replays.Load(), rejects())
	}
}

// TestUnmarshalRejectsEverySingleBitFlip proves the checksum detects
// all single-bit corruption (the Internet checksum's guarantee): no
// flipped packet may parse.
func TestUnmarshalRejectsEverySingleBitFlip(t *testing.T) {
	pkt := marshalBlock(header{typ: msgData, spec: specEOM, src: 17008, dst: 5757, id: 99, ack: 42},
		[]byte("the quick brown fox jumps over the lazy dog")).Bytes()
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
			st := ip.NewStackClock(v)
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
	case <-time.After(30 * time.Second):
		t.Fatal("a conversation with the machine's own address hung (a sender's lock taken again on its own goroutine?)")
	}
}
