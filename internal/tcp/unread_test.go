package tcp

import (
	"encoding/binary"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// timedDial dials port 565 at addr, which lc has announced on p2, from
// p1 and reports how much simulated time the dial took.
func timedDial(v *vclock.Virtual, p1 *Proto, lc xport.Conn, addr ip.Addr) (took time.Duration, dc, sc xport.Conn, err error) {
	accepted := vclock.NewMailbox[xport.Conn](v, 1)
	v.Go(func() {
		if nc, err := lc.Listen(); err == nil {
			accepted.TrySend(nc)
		}
	})
	start := v.Now()
	dc, _ = p1.NewConn()
	if err := dc.Connect(ip.HostPort(addr, 565)); err != nil {
		return 0, dc, nil, err
	}
	sc, _ = accepted.Recv()
	return v.Now().Sub(start), dc, sc, nil
}

// TestUnreadConversationDoesNotStallTheLine: an acceptor that stops
// reading while its peer writes 8 KiB messages for two simulated
// seconds holds what its advertised window let in, BufSize, and no
// byte more: the window probes beyond it are dropped and re-acked. A
// second dial between the same machines completes in its unloaded
// time, and once the acceptor reads again it gets every byte, in order.
func TestUnreadConversationDoesNotStallTheLine(t *testing.T) {
	onVirtual(t, ether.Profile{}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		lc, _ := ps[1].NewConn()
		defer lc.Close()
		if err := lc.Announce("565"); err != nil {
			t.Error(err)
			return
		}
		unloaded, d1, s1, err := timedDial(v, ps[0], lc, as[1])
		if err != nil {
			t.Error(err)
			return
		}
		d1.Close()
		s1.Close()

		const size, last = 8 << 10, 1<<32 - 1
		var stop atomic.Bool
		written := 0
		wg := vclock.NewWaitGroup(v)
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			msg := make([]byte, size)
			for {
				n := uint32(written)
				if stop.Load() {
					n = last
				}
				binary.BigEndian.PutUint32(msg, n)
				if _, err := dc.Write(msg); err != nil {
					t.Error(err)
					return
				}
				if n == last {
					return
				}
				written++
			}
		})
		v.Sleep(2 * time.Second)
		stop.Store(true)
		if q := sc.Stream().QueuedBytes(); q != BufSize {
			t.Errorf("the unread stream holds %d bytes, want the window's %d", q, BufSize)
		}

		loaded, d2, s2, err := timedDial(v, ps[0], lc, as[1])
		if err != nil {
			t.Error(err)
			return
		}
		d2.Close()
		s2.Close()
		if loaded != unloaded {
			t.Errorf("a second dial beside the unread conversation took %v, want its unloaded %v", loaded, unloaded)
		}

		buf := make([]byte, size)
		for i := 0; ; i++ {
			if _, err := io.ReadFull(sc, buf); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if got := binary.BigEndian.Uint32(buf); got == last {
				wg.Wait()
				if i != written {
					t.Errorf("read %d messages' bytes, want the %d written", i, written)
				}
				break
			} else if got != uint32(i) {
				t.Errorf("bytes %d-%d are message %d", i*size, (i+1)*size, got)
				return
			}
		}
		t.Logf("%d messages written in 2 s; dial %v", written, unloaded)
	})
}
