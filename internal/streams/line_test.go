package streams

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// pipeSend is a transport's send for a conversation's stream: each
// message goes on a medium pipe whole, on credit from the peer's
// stream, as Cyclone's boards send.
type pipeSend struct {
	tx   *medium.Pipe
	peer *Stream
}

func (p *pipeSend) Write(b []byte) (int, error) {
	if err := p.peer.Reserve(len(b)); err != nil {
		return 0, err
	}
	return len(b), p.tx.Send(b)
}

// onConvPair runs body on a virtual clock with the two ends of a
// conversation in the shape a transport with no flow control of its
// own gives one: each end is a stream whose device end writes into a
// medium pipe, and the peer's pipe delivers what arrives to the
// stream's device end, delimited, or hangs it up when the pipe closes.
// body may close a pipe early to hang the peer up.
func onConvPair(t *testing.T, prof medium.Profile, body func(ck vclock.Clock, a, b *Stream, ab, ba *medium.Pipe)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		prof.Clock = v
		ab, ba := medium.NewPipe(prof), medium.NewPipe(prof)
		toB, toA := &pipeSend{tx: ab}, &pipeSend{tx: ba}
		a, b := NewConv(0, v, toB), NewConv(0, v, toA)
		toB.peer, toA.peer = b, a
		for _, end := range []struct {
			rx *medium.Pipe
			s  *Stream
		}{{ab, b}, {ba, a}} {
			end.rx.Receive(func(msg []byte, err error) {
				if err != nil {
					end.s.HangupUp()
					return
				}
				blk := block.FromBytes(msg) // the pipe's pooled buffer
				blk.Delim = true
				end.s.Deliver(blk)
			})
		}
		body(v, a, b, ab, ba)
		ab.Close()
		ba.Close()
		a.Close()
		b.Close()
	})
}

// exchange runs n messages each way at once, a writer and a reader per
// direction, and fails t on any message lost, damaged, merged or out of
// order.
func exchange(t *testing.T, ck vclock.Clock, a, b *Stream, n int, mkmsg func(dir string, i int) []byte) {
	t.Helper()
	wg := vclock.NewWaitGroup(ck)
	send := func(s *Stream, dir string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := s.Write(mkmsg(dir, i)); err != nil {
				t.Errorf("%s write %d: %v", dir, i, err)
				return
			}
		}
	}
	recv := func(s *Stream, dir string) {
		defer wg.Done()
		buf := make([]byte, 4096)
		for i := 0; i < n; i++ {
			k, err := s.Read(buf)
			if err != nil {
				t.Errorf("%s read %d: %v", dir, i, err)
				return
			}
			if want := mkmsg(dir, i); !bytes.Equal(buf[:k], want) {
				t.Errorf("%s msg %d: got %q want %q", dir, i, buf[:k], want)
				return
			}
		}
	}
	wg.Add(4)
	ck.Go(func() { send(a, "a2b") })
	ck.Go(func() { recv(b, "a2b") })
	ck.Go(func() { send(b, "b2a") })
	ck.Go(func() { recv(a, "b2a") })
	wg.Wait()
}

// TestLineConversation runs a full-duplex conversation, both ends
// dressed with the production line disciplines (compress near the device, batch
// on top), and checks that every message crosses intact, in order,
// with its boundary preserved.
func TestLineConversation(t *testing.T) {
	onConvPair(t, medium.Profile{Latency: 100 * time.Microsecond, Bandwidth: 10_000_000}, func(ck vclock.Clock, a, b *Stream, _, _ *medium.Pipe) {
		for _, s := range []*Stream{a, b} {
			for _, spec := range []string{"compress", "batch 256 500us"} {
				if err := s.WriteCtl("push " + spec); err != nil {
					t.Fatal(err)
				}
			}
		}
		const nmsg = 120
		exchange(t, ck, a, b, nmsg, func(dir string, i int) []byte {
			m := []byte(fmt.Sprintf("%s-%04d ", dir, i))
			return append(m, bytes.Repeat([]byte("payload "), i%5)...)
		})

		// The stats file text must parse back to the live counters.
		var text strings.Builder
		for _, g := range a.ModuleStats() {
			text.WriteString(g.Render())
		}
		parsed := obs.ParseStats(text.String())
		if parsed["batch-msgs-in"] != nmsg {
			t.Fatalf("stats text reports %d msgs in:\n%s", parsed["batch-msgs-in"], text.String())
		}
		if parsed["compress-saved-bytes"]+parsed["compress-wire-bytes"] != parsed["compress-bytes-in"] {
			t.Fatalf("stats identity broken in rendered text:\n%s", text.String())
		}
		if got := modules(a); len(got) != 2 || got[0] != "batch" || got[1] != "compress" {
			t.Fatalf("module stack: %v", got)
		}
	})
}

// TestLineCloseMidWindow closes a conversation's stream with a message
// still coalescing; the close must flush it out the transport, and the
// peer must read it before seeing EOF when the transport then hangs up
// — the "hangup mid-batch-window" contract at the conversation layer.
func TestLineCloseMidWindow(t *testing.T) {
	onConvPair(t, medium.Profile{}, func(ck vclock.Clock, a, b *Stream, ab, _ *medium.Pipe) {
		for _, s := range []*Stream{a, b} {
			if err := s.WriteCtl("push batch 65536 1h"); err != nil {
				t.Fatal(err)
			}
		}
		done := vclock.NewWaitGroup(ck)
		done.Add(1)
		ck.Go(func() {
			defer done.Done()
			buf := make([]byte, 256)
			n, err := b.Read(buf)
			if err != nil || string(buf[:n]) != "going down" {
				t.Errorf("read %q, %v", buf[:n], err)
			}
			if _, err := b.Read(buf); err == nil {
				t.Error("no EOF after peer close")
			}
		})
		if _, err := a.Write([]byte("going down")); err != nil {
			t.Fatal(err)
		}
		// Nothing can have hit the wire yet: the window is 64K with an
		// hour's delay. Close must drain it.
		a.Close()
		ck.Sleep(time.Millisecond) // the pipe delivers what the drain sent
		ab.Close()                 // and the transport hangs the peer up
		done.Wait()
	})
}

// recordWriter is a transport that records each message it is handed.
type recordWriter struct{ wrote []string }

func (w *recordWriter) Write(p []byte) (int, error) {
	w.wrote = append(w.wrote, string(p))
	return len(p), nil
}

// TestLineDeviceEndFreesControlBlocks sends a control message that
// no module absorbs: it reaches the device end, which writes nothing for
// it and frees it (the package's leak gate counts the block). A message
// the stream carries in several blocks reaches the transport as one
// Write.
func TestLineDeviceEndFreesControlBlocks(t *testing.T) {
	w := &recordWriter{}
	s := NewConv(0, vclock.Real, w)
	defer s.Close()
	if err := s.WriteCtl("module-specific"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCtl("push trace"); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), MaxBlock/8) // two blocks
	if _, err := s.Write(big); err != nil {
		t.Fatal(err)
	}
	if len(w.wrote) != 2 || w.wrote[0] != "data" || w.wrote[1] != string(big) {
		t.Fatalf("transport saw %d writes, want \"data\" and one of %d bytes", len(w.wrote), len(big))
	}
}

// TestPushPopMidTraffic churns transparent modules on and off both
// ends of a live conversation while full-duplex traffic flows. Pushing
// mid-traffic is the hard case: the splice happens between two blocks
// a reader carries up from the device end, so a half-initialized
// module (or a dropped/reordered block crossing the splice) shows up as
// a sequence error here. Pops exercise the Drain path under load the
// same way.
func TestPushPopMidTraffic(t *testing.T) {
	onConvPair(t, medium.Profile{Latency: 50 * time.Microsecond, Bandwidth: 10_000_000}, func(ck vclock.Clock, a, b *Stream, _, _ *medium.Pipe) {
		// frame stays put while trace churns above it.
		for _, s := range []*Stream{a, b} {
			if err := s.WriteCtl("push frame"); err != nil {
				t.Fatal(err)
			}
		}
		stop, pushes := false, 0
		churners := vclock.NewWaitGroup(ck)
		churn := func(s *Stream) {
			defer churners.Done()
			for !stop {
				if err := s.WriteCtl("push trace"); err != nil {
					t.Errorf("push trace: %v", err)
					return
				}
				pushes++
				ck.Sleep(20 * time.Microsecond)
				if err := s.Pop(); err != nil {
					t.Errorf("pop trace: %v", err)
					return
				}
				ck.Sleep(15 * time.Microsecond)
			}
		}
		churners.Add(2)
		ck.Go(func() { churn(a) })
		ck.Go(func() { churn(b) })
		exchange(t, ck, a, b, 400, func(dir string, i int) []byte {
			return []byte(fmt.Sprintf("%s-%05d-%s", dir, i, bytes.Repeat([]byte("x"), i%97)))
		})
		stop = true
		churners.Wait()
		t.Logf("%d pushes and pops of trace under traffic", pushes)
		if mods := modules(a); len(mods) != 1 || mods[0] != "frame" {
			t.Fatalf("frame module lost under churn: %v", mods)
		}
	})
}
