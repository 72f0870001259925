package il

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// timedDial dials port 17009 on addr2, which lc has announced, from p1
// and reports how much simulated time the dial took.
func timedDial(v *vclock.Virtual, p1 *Proto, lc xport.Conn) (took time.Duration, dc, sc xport.Conn, err error) {
	accepted := vclock.NewMailbox[xport.Conn](v, 1)
	v.Go(func() {
		if nc, err := lc.Listen(); err == nil {
			accepted.TrySend(nc)
		}
	})
	start := v.Now()
	dc, _ = p1.NewConn()
	if err := dc.Connect(ip.HostPort(addr2, 17009)); err != nil {
		return 0, dc, nil, err
	}
	sc, _ = accepted.Recv()
	return v.Now().Sub(start), dc, sc, nil
}

// TestUnreadConversationDoesNotStallTheLine: an acceptor that stops
// reading while its peer writes for two simulated seconds fills its
// stream to the limit, and IL refuses the next message at its first
// packet instead of parking the segment's line, the one process that
// receives for every station. A second dial between the same machines
// completes in its unloaded time, the refusals count as out-of-window,
// and once the acceptor reads again it gets every message, in order.
// Had the line parked, with the conversation's lock held, the dial
// would never return and neither would teardown. An 8 KiB message is
// six packets, refused at the first before the rest arrive; a 1 KiB
// message is one, refused whole.
func TestUnreadConversationDoesNotStallTheLine(t *testing.T) {
	for _, size := range []int{8 << 10, 1 << 10} {
		t.Run(fmt.Sprint(size), func(t *testing.T) { unreadConversation(t, size) })
	}
}

func unreadConversation(t *testing.T, size int) {
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		lc, _ := p2.NewConn()
		defer lc.Close()
		if err := lc.Announce("17009"); err != nil {
			t.Error(err)
			return
		}
		unloaded, d1, s1, err := timedDial(v, p1, lc)
		if err != nil {
			t.Error(err)
			return
		}
		d1.Close()
		s1.Close()

		var stop atomic.Bool
		written := 0
		wg := vclock.NewWaitGroup(v)
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			msg := make([]byte, size)
			for !stop.Load() {
				binary.BigEndian.PutUint32(msg, uint32(written))
				if _, err := dc.Write(msg); err != nil {
					t.Error(err)
					return
				}
				written++
			}
			dc.Write([]byte("end"))
		})
		v.Sleep(2 * time.Second)
		stop.Store(true)
		if q := sc.Stream().QueuedBytes(); q != 1<<22 {
			t.Errorf("the unread stream holds %d bytes, want its limit, %d", q, 1<<22)
		}
		refused := p2.OutOfWindow.Load()
		if refused == 0 {
			t.Error("no message was refused")
		}

		loaded, d2, s2, err := timedDial(v, p1, lc)
		if err != nil {
			t.Error(err)
			return
		}
		d2.Close()
		s2.Close()
		if loaded != unloaded {
			t.Errorf("a second dial beside the unread conversation took %v, want its unloaded %v", loaded, unloaded)
		}

		buf := make([]byte, 64<<10)
		for i := 0; ; i++ {
			n, err := sc.Read(buf)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if string(buf[:n]) == "end" {
				wg.Wait()
				if i != written {
					t.Errorf("read %d messages, want the %d written", i, written)
				}
				break
			}
			if got := binary.BigEndian.Uint32(buf); n != size || got != uint32(i) {
				t.Errorf("message %d is %d bytes numbered %d", i, n, got)
				return
			}
		}
		t.Logf("%d messages written in 2 s, %d refused as out-of-window while unread; dial %v", written, refused, unloaded)
	})
}
