package tcp

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

func pair(t *testing.T, prof ether.Profile) (*Proto, *Proto, ip.Addr, ip.Addr) {
	t.Helper()
	seg := ether.NewSegment("e0", prof)
	t.Cleanup(seg.Close)
	s1, s2 := ip.NewStack(), ip.NewStack()
	a1 := ip.Addr{135, 104, 117, 1}
	a2 := ip.Addr{135, 104, 117, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := s1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close(); s2.Close() })
	p1, p2 := New(s1), New(s2)
	// Engine teardown kills straggling conversations (a lost FIN can
	// strand a passive close) so their timers don't outlive the test.
	t.Cleanup(func() { p1.Close(); p2.Close() })
	return p1, p2, a1, a2
}

func connect(t *testing.T, p1, p2 *Proto, a2 ip.Addr, port string) (xport.Conn, xport.Conn) {
	t.Helper()
	lc, _ := p2.NewConn()
	if err := lc.Announce(port); err != nil {
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
	if err := dc.Connect(a2.String() + "!" + port); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	select {
	case sc := <-acceptCh:
		t.Cleanup(func() { sc.Close() })
		return dc, sc
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

func TestHandshakeEcho(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	if dc.(*Conn).State() != "Established" || sc.(*Conn).State() != "Established" {
		t.Errorf("states %s / %s", dc.(*Conn).State(), sc.(*Conn).State())
	}
	dc.Write([]byte("hello tcp"))
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "hello tcp" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	sc.Write([]byte("right back"))
	n, err = dc.Read(buf)
	if err != nil || string(buf[:n]) != "right back" {
		t.Fatalf("reply %q, %v", buf[:n], err)
	}
}

func TestByteStreamDoesNotPreserveDelimiters(t *testing.T) {
	// §3: "TCP ... does not preserve delimiters." Two writes may be
	// read as one; the byte content must still be exact.
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	dc.Write([]byte("first"))
	dc.Write([]byte("second"))
	time.Sleep(50 * time.Millisecond) // let both segments land
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	for len(got) < len("firstsecond") {
		n, err = sc.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += string(buf[:n])
	}
	if got != "firstsecond" {
		t.Fatalf("stream bytes %q", got)
	}
}

func TestBulkTransfer(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 16*1024) // 256 KiB
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 32*1024)
		for len(got) < len(payload) {
			n, err := sc.Read(buf)
			if err != nil {
				return
			}
			got = append(got, buf[:n]...)
		}
	}()
	if n, err := dc.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write %d, %v", n, err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk transfer corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{Loss: 0.08, Seed: 11, Bandwidth: 1 << 26})
	dc, sc := connect(t, p1, p2, a2, "564")
	payload := bytes.Repeat([]byte("L"), 40*1024)
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 8192)
		for len(got) < len(payload) {
			n, err := sc.Read(buf)
			if err != nil {
				return
			}
			got = append(got, buf[:n]...)
		}
	}()
	dc.Write(payload)
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("lossy transfer corrupted (%d/%d bytes)", len(got), len(payload))
	}
	if p1.Retransmits.Load() == 0 {
		t.Log("note: loss pattern hit no data segments")
	}
}

func TestConnectionRefusedByRST(t *testing.T) {
	p1, _, _, a2 := pair(t, ether.Profile{})
	dc, _ := p1.NewConn()
	defer dc.Close()
	err := dc.Connect(a2.String() + "!9")
	if !vfs.SameError(err, vfs.ErrConnRef) {
		t.Errorf("refused connect = %v", err)
	}
}

func TestFINDeliversEOFAfterData(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	dc.Write([]byte("finale"))
	dc.Close()
	var got []byte
	buf := make([]byte, 64)
	for {
		n, err := sc.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read error %v (got %q)", err, got)
		}
	}
	if string(got) != "finale" {
		t.Errorf("data before FIN: %q", got)
	}
}

func TestCloseWithBufferedDataDrains(t *testing.T) {
	// Close immediately after a large write: every byte must still
	// arrive before EOF (FIN is sequenced after the data).
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	payload := bytes.Repeat([]byte("D"), 100*1024)
	go func() {
		dc.Write(payload)
		dc.Close()
	}()
	var got []byte
	buf := make([]byte, 16*1024)
	for {
		n, err := sc.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if len(got) != len(payload) {
		t.Fatalf("received %d of %d bytes before EOF", len(got), len(payload))
	}
}

func TestHalfClose(t *testing.T) {
	// After the client closes, the server (CloseWait) can still send.
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	dc.Write([]byte("request"))
	dc.Close()
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "request" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	// Wait until the FIN arrives and the server is in CloseWait.
	deadline := time.Now().Add(2 * time.Second)
	for sc.(*Conn).State() != "Close_wait" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n, err := sc.Write([]byte("response")); err != nil || n != 8 {
		t.Fatalf("server write after client close: %d, %v", n, err)
	}
	got := make([]byte, 64)
	rn, err := dc.Read(got)
	if err != nil || string(got[:rn]) != "response" {
		t.Fatalf("client read after close %q, %v", got[:rn], err)
	}
}

func TestSequentialConnectionsSamePort(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	lc, _ := p2.NewConn()
	if err := lc.Announce("7"); err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for i := range 4 {
		go func() {
			nc, err := lc.Listen()
			if err != nil {
				return
			}
			buf := make([]byte, 128)
			n, _ := nc.Read(buf)
			nc.Write(buf[:n])
			nc.Close()
		}()
		dc, _ := p1.NewConn()
		if err := dc.Connect(a2.String() + "!7"); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		dc.Write([]byte("echo?"))
		buf := make([]byte, 128)
		n, err := dc.Read(buf)
		if err != nil || string(buf[:n]) != "echo?" {
			t.Fatalf("echo %d: %q, %v", i, buf[:n], err)
		}
		dc.Close()
	}
}

func TestAnnounceCollisionAndBadAddrs(t *testing.T) {
	p1, _, _, _ := pair(t, ether.Profile{})
	a, _ := p1.NewConn()
	if err := a.Announce("80"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _ := p1.NewConn()
	defer b.Close()
	if err := b.Announce("80"); err != xport.ErrInUse {
		t.Errorf("duplicate announce = %v", err)
	}
	if err := b.Connect("nonsense"); err == nil {
		t.Error("bad connect address accepted")
	}
	if _, err := b.Listen(); err != xport.ErrNotAnnounced {
		t.Errorf("listen unannounced = %v", err)
	}
}

func TestStatusLines(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	if s := dc.Status(); len(s) < 11 || s[:11] != "Established" {
		t.Errorf("dialer status %q", s)
	}
	if s := sc.Status(); len(s) < 11 || s[:11] != "Established" {
		t.Errorf("server status %q", s)
	}
	if la := dc.LocalAddr(); la == "" {
		t.Error("empty local addr")
	}
	if ra := dc.RemoteAddr(); ra != a2.String()+"!564" {
		t.Errorf("remote addr %q", ra)
	}
}

// marshalBytes is marshalBlock for a test that wants the segment's bytes:
// a copy, with the block freed.
func marshalBytes(h header, data []byte) []byte {
	b := marshalBlock(h, data)
	defer b.Free()
	return bytes.Clone(b.Bytes())
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(src, dst uint16, seq, ack uint32, flags byte, win uint16, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		h := header{src: src, dst: dst, seq: seq, ack: ack, flags: flags, win: win}
		g, d, ok := unmarshal(marshalBytes(h, data))
		return ok && g == h && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	pkt := marshalBytes(header{src: 1, dst: 2, seq: 3, ack: 4, flags: flagACK}, []byte("zz"))
	pkt[5] ^= 0x01
	if _, _, ok := unmarshal(pkt); ok {
		t.Error("corrupted TCP segment accepted")
	}
	if _, _, ok := unmarshal(pkt[:8]); ok {
		t.Error("short segment accepted")
	}
}

// unmarshal verifies the checksum where the segment lies: the sum over
// the packet with the carried field included must be zero. No flipped
// bit may get past that — the checksum field's own bits included — for
// even and odd lengths alike.
func TestUnmarshalRejectsEverySingleBitFlip(t *testing.T) {
	for _, payload := range []string{"", "odd", "the quick brown fox jumps over the lazy dog!"} {
		pkt := marshalBytes(header{src: 5001, dst: 564, seq: 99, ack: 42, flags: flagACK, win: 4096}, []byte(payload))
		if _, data, ok := unmarshal(pkt); !ok || string(data) != payload {
			t.Fatalf("pristine %d-byte segment rejected", len(pkt))
		}
		for bit := 0; bit < len(pkt)*8; bit++ {
			cp := append([]byte(nil), pkt...)
			cp[bit/8] ^= 1 << (bit % 8)
			if _, _, ok := unmarshal(cp); ok {
				t.Fatalf("%d-byte segment with bit %d flipped accepted", len(pkt), bit)
			}
		}
	}
}

// Receiving a segment must not copy it: unmarshal used to duplicate
// every packet just to zero the checksum field before summing.
func TestAllocsUnmarshal(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	pkt := marshalBytes(header{src: 5001, dst: 564, seq: 99, ack: 42, flags: flagACK}, make([]byte, 1400))
	if got := testing.AllocsPerRun(1000, func() {
		if _, _, ok := unmarshal(pkt); !ok {
			t.Fatal("segment rejected")
		}
	}); got != 0 {
		t.Fatalf("unmarshal allocates %.1f objects per segment, want 0", got)
	}
}

func TestConcurrentConnections(t *testing.T) {
	p1, p2, _, a2 := pair(t, ether.Profile{})
	lc, _ := p2.NewConn()
	if err := lc.Announce("564"); err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	go func() {
		for {
			nc, err := lc.Listen()
			if err != nil {
				return
			}
			go func(nc xport.Conn) {
				defer nc.Close()
				buf := make([]byte, 1024)
				for {
					n, err := nc.Read(buf)
					if err != nil {
						return
					}
					nc.Write(buf[:n])
				}
			}(nc)
		}
	}()
	var wg sync.WaitGroup
	for i := range 6 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dc, _ := p1.NewConn()
			defer dc.Close()
			if err := dc.Connect(a2.String() + "!564"); err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			msg := bytes.Repeat([]byte{byte('a' + i)}, 300)
			dc.Write(msg)
			got := make([]byte, 0, len(msg))
			buf := make([]byte, 512)
			for len(got) < len(msg) {
				n, err := dc.Read(buf)
				if err != nil {
					t.Errorf("conn %d read: %v", i, err)
					return
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("conn %d echo corrupted", i)
			}
		}(i)
	}
	wg.Wait()
}

// onVirtual runs body on a virtual clock, with n machines on one
// Ethernet of profile prof and TCP on each: machine i is
// 135.104.117.i+1. Inside Run a t.Fatal would strand the scheduler's
// token, so body reports with t.Error and returns. A run still going after 30 s of wall time has
// hung — a lock taken twice on one goroutine parks nothing the clock
// can see — and fails the test.
func onVirtual(t *testing.T, prof ether.Profile, n int, body func(v *vclock.Virtual, ps []*Proto, as []ip.Addr)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := vclock.NewVirtual()
		v.Run(func() {
			prof.Clock = v
			seg := ether.NewSegment("e0", prof)
			defer seg.Close()
			var ps []*Proto
			var as []ip.Addr
			for i := range n {
				st := ip.NewStackClock(v)
				defer st.Close()
				a := ip.Addr{135, 104, 117, byte(i + 1)}
				if _, err := st.Bind(seg.NewInterface("ether0"), a, ip.Addr{255, 255, 255, 0}); err != nil {
					t.Error(err)
					return
				}
				p := New(st)
				defer p.Close()
				ps, as = append(ps, p), append(as, a)
			}
			body(v, ps, as)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("virtual-clock run hung (a sender's lock taken again on its own goroutine?)")
	}
}

// dialVirtual opens a conversation from p1 to port 564 of p2 at addr.
func dialVirtual(v *vclock.Virtual, p1, p2 *Proto, addr ip.Addr) (dc, sc xport.Conn, err error) {
	lc, _ := p2.NewConn()
	if err := lc.Announce("564"); err != nil {
		return nil, nil, err
	}
	defer lc.Close()
	accepted := vclock.NewMailbox[xport.Conn](v, 1)
	v.Go(func() {
		if nc, err := lc.Listen(); err == nil {
			accepted.TrySend(nc)
		}
	})
	dc, _ = p1.NewConn()
	if err := dc.Connect(addr.String() + "!564"); err != nil {
		return nil, nil, err
	}
	sc, _ = accepted.Recv()
	return dc, sc, nil
}

// TestLoopbackBothWaysOnVirtualClock: a conversation with the machine's
// own address, both ends writing three windows at once. Every segment
// rides the stack's loopback queue; delivered on the sender's goroutine
// instead, the first ack would take the sending conversation's lock a
// second time and the run would hang.
func TestLoopbackBothWaysOnVirtualClock(t *testing.T) {
	onVirtual(t, ether.Profile{}, 1, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[0], as[0])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		wg := vclock.NewWaitGroup(v)
		for i, end := range [][2]xport.Conn{{dc, sc}, {sc, dc}} {
			want := make([]byte, 3*BufSize)
			for j := range want {
				want[j] = byte(j*7 + i)
			}
			wg.Add(2)
			v.Go(func() {
				defer wg.Done()
				if _, err := end[0].Write(want); err != nil {
					t.Errorf("end %d write: %v", i, err)
				}
			})
			v.Go(func() {
				defer wg.Done()
				got := make([]byte, len(want))
				if _, err := io.ReadFull(end[1], got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("end %d: stream arrived damaged or out of order (%v)", i, err)
				}
			})
		}
		wg.Wait()
	})
}

// TestAllocsSegmentSend pins what sending one data segment allocates,
// on an established conversation whose peer has gone quiet: nothing.
// The segment's copy comes from the block pool, the IP send runs on the
// sender's goroutine, and the Ethernet reads its station set rather
// than copying it. A goroutine, its closure, a second copy of the data
// or a station snapshot per segment fails it.
func TestAllocsSegmentSend(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var allocs float64
	onVirtual(t, ether.Profile{}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		// Frames for the peer now reach its interface and stop there.
		ps[1].Stack.Close()
		c := dc.(*Conn)
		if _, err := c.Write(make([]byte, 1000)); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(200, func() {
			c.Mu.Lock()
			c.sndNxt = c.sndUna // the buffered segment is unsent again
			c.pumpLocked()
			c.Mu.Unlock()
			v.Sleep(0) // the peer's interface drops the frame
		})
	})
	t.Logf("one data segment sent: %.1f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("sending a segment allocates %.1f objects, want 0 (a goroutine, a copy or a station snapshot per segment is back?)", allocs)
	}
}
