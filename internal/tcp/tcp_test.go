package tcp

import (
	"bytes"
	"io"
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

// onPair runs body on a virtual clock with a TCP conversation open
// from 135.104.117.1 to port 564 of 135.104.117.2, both on one Ethernet
// of profile prof.
func onPair(t *testing.T, prof ether.Profile, body func(v *vclock.Virtual, dc, sc xport.Conn)) {
	t.Helper()
	onVirtual(t, prof, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		body(v, dc, sc)
	})
}

// readAll reads c until it has n bytes or a read fails.
func readAll(c xport.Conn, n int) []byte {
	var got []byte
	buf := make([]byte, 32*1024)
	for len(got) < n {
		m, err := c.Read(buf)
		if err != nil {
			break
		}
		got = append(got, buf[:m]...)
	}
	return got
}

func TestHandshakeEcho(t *testing.T) {
	onPair(t, ether.Profile{}, func(_ *vclock.Virtual, dc, sc xport.Conn) {
		if dc.(*Conn).State() != "Established" || sc.(*Conn).State() != "Established" {
			t.Errorf("states %s / %s", dc.(*Conn).State(), sc.(*Conn).State())
		}
		dc.Write([]byte("hello tcp"))
		buf := make([]byte, 64)
		n, err := sc.Read(buf)
		if err != nil || string(buf[:n]) != "hello tcp" {
			t.Errorf("read %q, %v", buf[:n], err)
			return
		}
		sc.Write([]byte("right back"))
		n, err = dc.Read(buf)
		if err != nil || string(buf[:n]) != "right back" {
			t.Errorf("reply %q, %v", buf[:n], err)
		}
	})
}

func TestByteStreamDoesNotPreserveDelimiters(t *testing.T) {
	// §3: "TCP ... does not preserve delimiters." Two writes may be
	// read as one; the byte content must still be exact.
	onPair(t, ether.Profile{}, func(v *vclock.Virtual, dc, sc xport.Conn) {
		dc.Write([]byte("first"))
		dc.Write([]byte("second"))
		v.Sleep(50 * time.Millisecond) // let both segments land
		if got := string(readAll(sc, len("firstsecond"))); got != "firstsecond" {
			t.Errorf("stream bytes %q", got)
		}
	})
}

func TestBulkTransfer(t *testing.T) {
	onPair(t, ether.Profile{}, func(v *vclock.Virtual, dc, sc xport.Conn) {
		payload := bytes.Repeat([]byte("0123456789abcdef"), 16*1024) // 256 KiB
		wg := vclock.NewWaitGroup(v)
		wg.Add(1)
		var got []byte
		v.Go(func() {
			defer wg.Done()
			got = readAll(sc, len(payload))
		})
		if n, err := dc.Write(payload); err != nil || n != len(payload) {
			t.Errorf("write %d, %v", n, err)
		}
		wg.Wait()
		if !bytes.Equal(got, payload) {
			t.Errorf("bulk transfer corrupted: got %d bytes want %d", len(got), len(payload))
		}
	})
}

func TestReliabilityUnderLoss(t *testing.T) {
	onVirtual(t, ether.Profile{Loss: 0.08, Seed: 11, Bandwidth: 1 << 26}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		payload := bytes.Repeat([]byte("L"), 40*1024)
		wg := vclock.NewWaitGroup(v)
		wg.Add(1)
		var got []byte
		v.Go(func() {
			defer wg.Done()
			got = readAll(sc, len(payload))
		})
		dc.Write(payload)
		wg.Wait()
		if !bytes.Equal(got, payload) {
			t.Errorf("lossy transfer corrupted (%d/%d bytes)", len(got), len(payload))
		}
		if ps[0].Retransmits.Load() == 0 {
			t.Error("8% loss over 40 KiB and no retransmission")
		}
	})
}

func TestConnectionRefusedByRST(t *testing.T) {
	onVirtual(t, ether.Profile{}, 2, func(_ *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, _ := ps[0].NewConn()
		defer dc.Close()
		err := dc.Connect(as[1].String() + "!9")
		if !vfs.SameError(err, vfs.ErrConnRef) {
			t.Errorf("refused connect = %v", err)
		}
	})
}

func TestFINDeliversEOFAfterData(t *testing.T) {
	onPair(t, ether.Profile{}, func(_ *vclock.Virtual, dc, sc xport.Conn) {
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
				t.Errorf("read error %v (got %q)", err, got)
				return
			}
		}
		if string(got) != "finale" {
			t.Errorf("data before FIN: %q", got)
		}
	})
}

func TestCloseWithBufferedDataDrains(t *testing.T) {
	// Close immediately after a large write: every byte must still
	// arrive before EOF (FIN is sequenced after the data).
	onPair(t, ether.Profile{}, func(v *vclock.Virtual, dc, sc xport.Conn) {
		payload := bytes.Repeat([]byte("D"), 100*1024)
		v.Go(func() {
			dc.Write(payload)
			dc.Close()
		})
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
			t.Errorf("received %d of %d bytes before EOF", len(got), len(payload))
		}
	})
}

func TestHalfClose(t *testing.T) {
	// After the client closes, the server (CloseWait) can still send.
	onPair(t, ether.Profile{}, func(v *vclock.Virtual, dc, sc xport.Conn) {
		dc.Write([]byte("request"))
		dc.Close()
		buf := make([]byte, 64)
		n, err := sc.Read(buf)
		if err != nil || string(buf[:n]) != "request" {
			t.Errorf("server read %q, %v", buf[:n], err)
			return
		}
		// The FIN has arrived once the clock has run out what was due.
		v.Sleep(time.Millisecond)
		if st := sc.(*Conn).State(); st != "Close_wait" {
			t.Errorf("server in %s after the client's FIN, want Close_wait", st)
		}
		if n, err := sc.Write([]byte("response")); err != nil || n != 8 {
			t.Errorf("server write after client close: %d, %v", n, err)
			return
		}
		got := make([]byte, 64)
		rn, err := dc.Read(got)
		if err != nil || string(got[:rn]) != "response" {
			t.Errorf("client read after close %q, %v", got[:rn], err)
		}
	})
}

func TestSequentialConnectionsSamePort(t *testing.T) {
	onVirtual(t, ether.Profile{}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		lc, _ := ps[1].NewConn()
		if err := lc.Announce("7"); err != nil {
			t.Error(err)
			return
		}
		defer lc.Close()
		for i := range 4 {
			v.Go(func() {
				nc, err := lc.Listen()
				if err != nil {
					return
				}
				buf := make([]byte, 128)
				n, _ := nc.Read(buf)
				nc.Write(buf[:n])
				nc.Close()
			})
			dc, _ := ps[0].NewConn()
			if err := dc.Connect(as[1].String() + "!7"); err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			dc.Write([]byte("echo?"))
			buf := make([]byte, 128)
			n, err := dc.Read(buf)
			dc.Close()
			if err != nil || string(buf[:n]) != "echo?" {
				t.Errorf("echo %d: %q, %v", i, buf[:n], err)
				return
			}
		}
	})
}

func TestAnnounceCollisionAndBadAddrs(t *testing.T) {
	onVirtual(t, ether.Profile{}, 1, func(_ *vclock.Virtual, ps []*Proto, _ []ip.Addr) {
		a, _ := ps[0].NewConn()
		if err := a.Announce("80"); err != nil {
			t.Error(err)
			return
		}
		defer a.Close()
		b, _ := ps[0].NewConn()
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
	})
}

func TestStatusLines(t *testing.T) {
	onPair(t, ether.Profile{}, func(_ *vclock.Virtual, dc, sc xport.Conn) {
		if s := dc.Status(); len(s) < 11 || s[:11] != "Established" {
			t.Errorf("dialer status %q", s)
		}
		if s := sc.Status(); len(s) < 11 || s[:11] != "Established" {
			t.Errorf("server status %q", s)
		}
		if la := dc.LocalAddr(); la == "" {
			t.Error("empty local addr")
		}
		if ra := dc.RemoteAddr(); ra != "135.104.117.2!564" {
			t.Errorf("remote addr %q", ra)
		}
	})
}

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
	onVirtual(t, ether.Profile{}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		lc, _ := ps[1].NewConn()
		if err := lc.Announce("564"); err != nil {
			t.Error(err)
			return
		}
		defer lc.Close()
		v.Go(func() {
			for {
				nc, err := lc.Listen()
				if err != nil {
					return
				}
				v.Go(func() {
					defer nc.Close()
					buf := make([]byte, 1024)
					for {
						n, err := nc.Read(buf)
						if err != nil {
							return
						}
						nc.Write(buf[:n])
					}
				})
			}
		})
		wg := vclock.NewWaitGroup(v)
		for i := range 6 {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				dc, _ := ps[0].NewConn()
				defer dc.Close()
				if err := dc.Connect(as[1].String() + "!564"); err != nil {
					t.Errorf("conn %d: %v", i, err)
					return
				}
				msg := bytes.Repeat([]byte{byte('a' + i)}, 300)
				dc.Write(msg)
				if got := readAll(dc, len(msg)); !bytes.Equal(got, msg) {
					t.Errorf("conn %d echo corrupted", i)
				}
			})
		}
		wg.Wait()
	})
}

// onVirtual runs body on a virtual clock, with n machines on one
// Ethernet of profile prof and TCP on each: machine i is
// 135.104.117.i+1. Inside Run a t.Fatal would strand the scheduler's
// token, so body reports with t.Error and returns. A run still going
// after 30 s of wall time has hung — a lock taken twice on one
// goroutine parks nothing the clock can see — and fails the test.
func onVirtual(t *testing.T, prof ether.Profile, n int, body func(v *vclock.Virtual, ps []*Proto, as []ip.Addr)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := vclock.NewVirtual()
		v.Run(func() {
			prof.Clock = v
			seg := ether.NewSegment(prof)
			defer seg.Close()
			var ps []*Proto
			var as []ip.Addr
			for i := range n {
				st := ip.NewStack(v)
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
	case <-time.After(30 * time.Second): //netvet:ignore realtime a lock taken twice stops the virtual clock itself; only the host's can notice
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

// TestAllocsWriteAck pins what a steady-state Write and the ack that
// retires it allocate: nothing. The send buffer keeps one backing
// array; an ack advances the buffer's start within it, and a write
// that would not fit behind that moves the unacknowledged bytes back
// to the front rather than growing a new array.
func TestAllocsWriteAck(t *testing.T) {
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
		// Frames for the peer now reach its interface and stop there;
		// the test acks by hand.
		ps[1].Stack.Close()
		c := dc.(*Conn)
		msg := make([]byte, 1000)
		ack := func() {
			c.Mu.Lock()
			h := header{src: c.Rport, dst: c.Lport, seq: c.rcvNxt, ack: c.sndNxt, flags: flagACK, win: 0xffff}
			c.Mu.Unlock()
			c.segment(h, nil)
		}
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
			}
			ack()
			v.Sleep(0) // the peer's interface drops the segment
		})
		c.Mu.Lock()
		if len(c.sndBuf) != 0 {
			t.Errorf("%d bytes left unacknowledged", len(c.sndBuf))
		}
		c.Mu.Unlock()
	})
	t.Logf("one Write and its ack: %.1f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("a Write and its ack allocate %.1f objects, want 0 (the send buffer grew a new array?)", allocs)
	}
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
