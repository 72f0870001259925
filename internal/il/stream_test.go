package il

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// pacedLAN is an office Ethernet slow enough that a burst of
// kilobyte messages fills IL's window.
var pacedLAN = ether.Profile{Latency: 500 * time.Microsecond, Bandwidth: 1_250_000}

// TestPushPopWhileWriterParksOnWindow pushes and pops trace on both ends
// of an IL conversation, over and over, while each end writes a burst
// through its stream that parks it on IL's full window, holding the
// stream's chain lock. A push waits for that writer; the window opens as
// the peer's IL takes the data, which waits on no chain lock, since what
// IL delivers is only queued at the device end and carried up by the
// reader. Every message arrives, in order, at the pinned instant.
func TestPushPopWhileWriterParksOnWindow(t *testing.T) {
	const nmsg = 3 * Window
	var elapsed time.Duration
	pushes := 0
	onVirtualPair(t, pacedLAN, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		start := v.Now()
		mkmsg := func(dir string, i int) []byte {
			return []byte(fmt.Sprintf("%s-%04d-%s", dir, i, bytes.Repeat([]byte("w"), 1000)))
		}
		wg := vclock.NewWaitGroup(v)
		send := func(c xport.Conn, dir string) {
			defer wg.Done()
			for i := range nmsg {
				if _, err := c.Stream().Write(mkmsg(dir, i)); err != nil {
					t.Errorf("%s write %d: %v", dir, i, err)
					return
				}
			}
		}
		recv := func(c xport.Conn, dir string) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := range nmsg {
				n, err := c.Read(buf)
				if err != nil {
					t.Errorf("%s read %d: %v", dir, i, err)
					return
				}
				if !bytes.Equal(buf[:n], mkmsg(dir, i)) {
					t.Errorf("%s message %d: got %.12q", dir, i, buf[:n])
					return
				}
			}
		}
		stop := false
		churners := vclock.NewWaitGroup(v)
		churn := func(s *streams.Stream) {
			defer churners.Done()
			for !stop {
				if err := s.WriteCtl("push trace"); err != nil {
					t.Errorf("push: %v", err)
					return
				}
				pushes++
				v.Sleep(300 * time.Microsecond)
				if err := s.Pop(); err != nil {
					t.Errorf("pop: %v", err)
					return
				}
				v.Sleep(200 * time.Microsecond)
			}
		}
		churners.Add(2)
		v.Go(func() { churn(dc.Stream()) })
		v.Go(func() { churn(sc.Stream()) })
		wg.Add(4)
		v.Go(func() { send(dc, "d2s") })
		v.Go(func() { recv(sc, "d2s") })
		v.Go(func() { send(sc, "s2d") })
		v.Go(func() { recv(dc, "s2d") })
		wg.Wait()
		elapsed = v.Now().Sub(start)
		stop = true
		churners.Wait()
	})
	t.Logf("%d messages each way in %v, %d pushes", nmsg, elapsed, pushes)
	if want := 106324 * time.Microsecond; elapsed != want {
		t.Errorf("the exchange took %v, want %v", elapsed, want)
	}
}

// TestSwitchesDressedReceive: a message received on a conversation
// with a module pushed costs the scheduler the hand-offs an undressed
// one does, two, to the parked reader and back: the reader runs the
// module, and no process stands between the wire, the protocol's
// delivery and the read. (A process per delay line cost two more.)
func TestSwitchesDressedReceive(t *testing.T) {
	perMsg := func(mods ...string) int64 {
		var switches int64
		onVirtualPair(t, pacedLAN, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
			for _, c := range []xport.Conn{dc, sc} {
				for _, m := range mods {
					if err := c.Stream().WriteCtl("push " + m); err != nil {
						t.Error(err)
						return
					}
				}
			}
			const n = 50
			read := readAll(v, sc, n+1)
			msg := []byte("one message")
			dc.Stream().Write(msg) // warm: the reader is parked in Read from here on
			v.Sleep(10 * time.Millisecond)
			s := v.Switches()
			for range n {
				dc.Stream().Write(msg)
				v.Sleep(10 * time.Millisecond) // it arrives, is acknowledged and read
			}
			switches = v.Switches() - s
			if got, err := read(); err != nil || len(got) != n+1 {
				t.Errorf("read %d messages, %v", len(got), err)
			}
			switches /= n
		})
		return switches
	}
	bare, dressed := perMsg(), perMsg("trace")
	t.Logf("hand-offs per message received: %d undressed, %d with trace pushed", bare, dressed)
	if bare != 2 || dressed != 2 {
		t.Errorf("a message costs %d hand-offs with a module pushed, %d without; want 2 each", dressed, bare)
	}
}

// TestHangupDoesNotWaitForTheWindow: a conversation with nothing pushed
// hangs up at once while its writer is parked on IL's full window,
// holding its stream's chain lock: the pops a hangup starts with find
// nothing to pop without waiting for that writer, and the close wakes
// it.
func TestHangupDoesNotWaitForTheWindow(t *testing.T) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, p2 *Proto, dc, _ xport.Conn) {
		p2.Stack.Close() // the peer never acknowledges
		s := dc.Stream()
		var err error
		wrote := vclock.NewWaitGroup(v)
		wrote.Add(1)
		v.Go(func() {
			defer wrote.Done()
			for err == nil {
				_, err = s.Write([]byte("x"))
			}
		})
		v.Sleep(time.Second) // the writer is parked on the full window
		start := v.Now()
		if perr := s.Pop(); perr != streams.ErrNothingToPop {
			t.Errorf("pop on a bare stream: %v", perr)
		}
		dc.Close()
		wrote.Wait()
		if err == nil || v.Since(start) != 0 {
			t.Errorf("the hangup took %v and the writer saw %v", v.Since(start), err)
		}
	})
}
