package datakit

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// onVirtual runs body inside a virtual clock with two hosts on one
// switch of profile p. Inside Run errors report and return, and
// teardown happens before Run unwinds.
func onVirtual(t *testing.T, p medium.Profile, body func(v *vclock.Virtual, p1, p2 *Proto)) {
	v := vclock.NewVirtual()
	v.Run(func() {
		p.Clock = v
		sw := NewSwitch(p)
		defer sw.Close()
		h1, err := sw.NewHost("nj/astro/philw-gnot")
		if err != nil {
			t.Error(err)
			return
		}
		h2, err := sw.NewHost("nj/astro/helix")
		if err != nil {
			t.Error(err)
			return
		}
		body(v, NewProto(h1), NewProto(h2))
	})
}

// onCircuit is onVirtual with a circuit open from p1 to service,
// announced on p2: dc is the caller's end, sc the acceptor's.
func onCircuit(t *testing.T, p medium.Profile, service string, body func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn)) {
	onVirtual(t, p, func(v *vclock.Virtual, p1, p2 *Proto) {
		lc, _ := p2.NewConn()
		defer lc.Close()
		if err := lc.Announce(service); err != nil {
			t.Error(err)
			return
		}
		accepted := vclock.NewMailbox[xport.Conn](v, 1)
		v.Go(func() {
			if nc, err := lc.Listen(); err == nil {
				accepted.TrySend(nc)
			}
		})
		dc, _ := p1.NewConn()
		defer dc.Close()
		if err := dc.Connect("nj/astro/helix!" + service); err != nil {
			t.Error(err)
			return
		}
		sc, _ := accepted.Recv()
		defer sc.Close()
		body(v, p1, p2, dc, sc)
	})
}

// readMsgs reads n messages from c on a goroutine of its own and
// returns a wait for them; it stops early at a read error.
func readMsgs(v *vclock.Virtual, c xport.Conn, n int) func() [][]byte {
	var got [][]byte
	wg := vclock.NewWaitGroup(v)
	wg.Add(1)
	v.Go(func() {
		defer wg.Done()
		buf := make([]byte, 64*1024)
		for len(got) < n {
			k, err := c.Read(buf)
			if err != nil {
				return
			}
			got = append(got, append([]byte(nil), buf[:k]...))
		}
	})
	return func() [][]byte {
		wg.Wait()
		return got
	}
}

func TestCallSetupAndEcho(t *testing.T) {
	onCircuit(t, medium.Profile{}, "9fs", func(_ *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		dc.Write([]byte("over datakit"))
		buf := make([]byte, 256)
		n, err := sc.Read(buf)
		if err != nil || string(buf[:n]) != "over datakit" {
			t.Errorf("read %q, %v", buf[:n], err)
			return
		}
		sc.Write([]byte("reply"))
		n, err = dc.Read(buf)
		if err != nil || string(buf[:n]) != "reply" {
			t.Errorf("reply %q, %v", buf[:n], err)
			return
		}
		if dc.RemoteAddr() != "nj/astro/helix!9fs" {
			t.Errorf("remote %q", dc.RemoteAddr())
		}
		if sc.RemoteAddr() != "nj/astro/philw-gnot" {
			t.Errorf("server's remote %q", sc.RemoteAddr())
		}
		if dc.Status() != "Established" {
			t.Errorf("status %q", dc.Status())
		}
	})
}

// TestSwitchesPacedCircuit pins what a cell costs the scheduler on a
// paced circuit: no hand-off. Each leg's delay line is a clock event
// that runs the receiving end's URP input itself, on the goroutine that
// parked, so the cell's arrival and its ack's are function calls while
// the writer waits out its wire time and then sleeps. A process per
// line cost five hand-offs a cell (500 here), and a receive goroutine
// per circuit end one more per leg.
func TestSwitchesPacedCircuit(t *testing.T) {
	var oneAtATime int64
	onCircuit(t, medium.Profile{Latency: time.Millisecond, Bandwidth: 250_000}, "echo", func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		msg := make([]byte, 64)
		s := v.Switches()
		for range 100 {
			dc.Write(msg)
			v.Sleep(5 * time.Millisecond) // the cell arrives and its ack comes back
		}
		oneAtATime = v.Switches() - s
		if got := readMsgs(v, sc, 100)(); len(got) != 100 {
			t.Errorf("the reader got %d of 100 messages", len(got))
		}
	})
	t.Logf("100 one-cell messages on a paced circuit: %d switches", oneAtATime)
	if oneAtATime != 0 {
		t.Errorf("100 one-cell messages switched %d times, want 0 (a process is back between a line and its URP engine?)", oneAtATime)
	}
}

func TestURPDelimitersPreserved(t *testing.T) {
	onCircuit(t, medium.Profile{}, "echo", func(_ *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		dc.Write([]byte("one"))
		dc.Write([]byte("two two"))
		buf := make([]byte, 256)
		n, _ := sc.Read(buf)
		if string(buf[:n]) != "one" {
			t.Errorf("first message %q", buf[:n])
		}
		n, _ = sc.Read(buf)
		if string(buf[:n]) != "two two" {
			t.Errorf("second message %q", buf[:n])
		}
	})
}

func TestLargeMessageOverSmallBlocks(t *testing.T) {
	onCircuit(t, medium.Profile{}, "bulk", func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		msg := bytes.Repeat([]byte("dk"), 10*1024) // 20 KiB over 1 KiB blocks
		wait := readMsgs(v, sc, 1)
		dc.Write(msg)
		if got := wait(); len(got) != 1 || !bytes.Equal(got[0], msg) {
			t.Errorf("reassembled %d reads, want %d bytes in one delimited read", len(got), len(msg))
		}
	})
}

func TestURPRecoversFromLoss(t *testing.T) {
	onCircuit(t, medium.Profile{Loss: 0.05, Seed: 5}, "lossy", func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		const rounds = 30
		wait := readMsgs(v, sc, rounds)
		for i := range rounds {
			dc.Write(bytes.Repeat([]byte{byte(i)}, 500))
		}
		msgs := wait()
		if len(msgs) != rounds {
			t.Errorf("received %d of %d messages", len(msgs), rounds)
			return
		}
		for i, m := range msgs {
			if len(m) != 500 || m[0] != byte(i) {
				t.Errorf("message %d corrupted", i)
				return
			}
		}
		if p1.Stats.Retransmits.Load() == 0 && p2.Stats.Retransmits.Load() == 0 {
			t.Log("note: loss pattern hit no data cells")
		}
	})
}

func TestNoSuchHostAndService(t *testing.T) {
	onVirtual(t, medium.Profile{}, func(_ *vclock.Virtual, p1, _ *Proto) {
		dc, _ := p1.NewConn()
		defer dc.Close()
		if err := dc.Connect("nj/astro/nowhere!9fs"); err != ErrNoHost {
			t.Errorf("dial to unknown host = %v", err)
		}
		if err := dc.Connect("nj/astro/helix!nosuch"); !vfs.SameError(err, vfs.ErrConnRef) {
			t.Errorf("dial to unannounced service = %v", err)
		}
		if err := dc.Connect("malformed"); err != xport.ErrBadAddress {
			t.Errorf("malformed dial = %v", err)
		}
	})
}

func TestDuplicateHostName(t *testing.T) {
	sw := NewSwitch(medium.Profile{})
	defer sw.Close()
	if _, err := sw.NewHost("nj/astro/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.NewHost("nj/astro/x"); err != ErrNameTaken {
		t.Errorf("duplicate host = %v", err)
	}
}

func TestServiceCollisionAndRelease(t *testing.T) {
	onVirtual(t, medium.Profile{}, func(_ *vclock.Virtual, p1, _ *Proto) {
		a, _ := p1.NewConn()
		if err := a.Announce("9fs"); err != nil {
			t.Error(err)
			return
		}
		b, _ := p1.NewConn()
		if err := b.Announce("9fs"); err != xport.ErrInUse {
			t.Errorf("duplicate announce = %v", err)
		}
		a.Close()
		if err := b.Announce("9fs"); err != nil {
			t.Errorf("announce after release: %v", err)
		}
		b.Close()
	})
}

// TestHangupPropagates: the caller's close reaches the acceptor, whose
// next read after the last message fails.
func TestHangupPropagates(t *testing.T) {
	onCircuit(t, medium.Profile{}, "hup", func(_ *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		dc.Write([]byte("last"))
		buf := make([]byte, 64)
		sc.Read(buf)
		dc.Close()
		if n, err := sc.Read(buf); err == nil {
			t.Errorf("read %q after the peer hung up, want an error", buf[:n])
		}
	})
}

// TestURPRecoversFromCellCorruption: bit flips on a circuit leg fail
// the hardware FCS, the damaged cells are discarded (counted), and
// URP's REJ/ENQ machinery recovers — the application sees an intact,
// in-order, exactly-once stream. URP's cells carry no checksum of
// their own; this is the hardware promise it was designed over.
func TestURPRecoversFromCellCorruption(t *testing.T) {
	prof := medium.Profile{
		Seed:   9,
		Impair: medium.Impairment{Corrupt: 0.10, CorruptBits: 2},
	}
	onCircuit(t, prof, "corrupt", func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		const rounds = 40
		wait := readMsgs(v, sc, rounds)
		for i := range rounds {
			dc.Write(bytes.Repeat([]byte{byte(i)}, 700))
		}
		msgs := wait()
		if len(msgs) != rounds {
			t.Errorf("received %d of %d messages", len(msgs), rounds)
			return
		}
		for i, m := range msgs {
			if len(m) != 700 {
				t.Errorf("message %d wrong length %d", i, len(m))
				return
			}
			for _, b := range m {
				if b != byte(i) {
					t.Errorf("message %d delivered corrupted: saw %#x want %#x", i, b, byte(i))
					return
				}
			}
		}
		if errs := p1.FCSErrs.Load() + p2.FCSErrs.Load(); errs == 0 {
			t.Error("10% corruption but no FCS discards — the check is not running")
		}
	})
}
