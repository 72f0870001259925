package il

import (
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// lan is the office Ethernet of the recovery tests: 10 Mb/s, 200 µs.
var lan = ether.Profile{Latency: 200 * time.Microsecond, Bandwidth: 10_000_000 / 8}

// dropFirst makes p lose the first copy of every packet pick names: it
// crosses the wire and vanishes where p's IL would have taken it.
func dropFirst(p *Proto, pick func(h header) bool) {
	lost := make(map[header]bool)
	p.Stack.Register(ip.ProtoIL, func(src, dst ip.Addr, payload []byte) {
		if h, _, ok := unmarshal(payload); ok && pick(h) {
			if key := (header{typ: h.typ, id: h.id}); !lost[key] {
				lost[key] = true
				return
			}
		}
		p.recv(src, dst, payload)
	})
}

// closeLosing runs a conversation on the LAN whose dialer, with nothing
// outstanding, writes msg and closes at once, while the acceptor loses
// the first copy of each packet lose picks. It returns what the
// acceptor read before its EOF, and how long after the close the EOF
// came. An acceptor that never hears the close is hung up after ten
// simulated seconds.
func closeLosing(t *testing.T, msg string, lose func(h header) bool) (got []string, eof time.Duration) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, _, p2 *Proto, dc, sc xport.Conn) {
		buf := make([]byte, 64)
		dc.Write([]byte("warm"))
		sc.Read(buf)
		v.Sleep(10 * time.Millisecond)
		dropFirst(p2, lose)
		dc.Write([]byte(msg))
		start := v.Now()
		dc.Close()
		watchdog := v.AfterFunc(10*time.Second, func() { sc.Close() })
		defer watchdog.Stop()
		for {
			n, err := sc.Read(buf)
			if err != nil {
				break
			}
			got = append(got, string(buf[:n]))
		}
		eof = v.Now().Sub(start)
	})
	return got, eof
}

// TestCloseRecoversLostLastMessage: the message written just before
// Close is lost on the wire. The closing conversation still answers
// for it — its query's state proves the loss and it resends — so the
// acceptor reads it, then the close.
func TestCloseRecoversLostLastMessage(t *testing.T) {
	got, eof := closeLosing(t, "last words", func(h header) bool { return h.typ == msgData })
	if !slices.Equal(got, []string{"last words"}) || eof > time.Second {
		t.Errorf("acceptor read %q, then EOF %v after the close; want the lost message, then EOF within the linger", got, eof)
	}
}

// TestCloseResentWhenLost: the close itself is lost. The closing
// conversation resends it until the peer's close comes back, so an idle
// acceptor is not left open forever.
func TestCloseResentWhenLost(t *testing.T) {
	got, eof := closeLosing(t, "bye", func(h header) bool { return h.typ == msgClose })
	if !slices.Equal(got, []string{"bye"}) || eof > time.Second {
		t.Errorf("acceptor read %q, then EOF %v after the close; want the message, then EOF within the linger", got, eof)
	}
}

// TestDialSendsOneSyncEachWay: across the WAN profile's Ethernet
// (core.WANProfiles: 100 Mb/s, 5 ms each way) a clean dial's round trip
// is well under synRetry, so neither end resends its sync.
func TestDialSendsOneSyncEachWay(t *testing.T) {
	wan := ether.Profile{Bandwidth: 100_000_000 / 8, Latency: 5 * time.Millisecond}
	syncs := make(map[*Proto]int)
	count := func(p *Proto) {
		p.Stack.Register(ip.ProtoIL, func(src, dst ip.Addr, payload []byte) {
			if h, _, ok := unmarshal(payload); ok && h.typ == msgSync {
				syncs[p]++
			}
			p.recv(src, dst, payload)
		})
	}
	onTunedVirtualPair(t, wan, count, func(v *vclock.Virtual, p1, p2 *Proto, _, _ xport.Conn) {
		v.Sleep(time.Second)
		if syncs[p2] != 1 || syncs[p1] != 1 {
			t.Errorf("the acceptor received %d syncs and the dialer %d; want one each", syncs[p2], syncs[p1])
		}
	})
}

// TestQueryFiresExactlyAtTimeout: one message is lost; the query about
// it goes out exactly the retransmission timeout after it was sent, not
// on the next tick of a polling loop.
func TestQueryFiresExactlyAtTimeout(t *testing.T) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, _, p2 *Proto, dc, sc xport.Conn) {
		warmLAN(v, dc, sc)
		buf := make([]byte, 64)
		c := dc.(*Conn)
		epoch := v.Now()
		c.Ring.Enable(v)
		c.Mu.Lock()
		lost := c.sndNext
		c.Mu.Unlock()
		dropFirst(p2, func(h header) bool { return h.typ == msgData && h.id == lost })
		dc.Write([]byte("lost once"))
		c.Mu.Lock()
		due := c.waitFrom.Add(c.rtoLocked())
		c.Mu.Unlock()
		if n, err := sc.Read(buf); err != nil || string(buf[:n]) != "lost once" {
			t.Errorf("read %q, %v", buf[:n], err)
			return
		}
		for _, e := range c.Ring.Events() {
			if e.Kind == obs.EvQuery {
				if at := epoch.Add(e.When); !at.Equal(due) {
					t.Errorf("query at %v, %v after it was due", at.Sub(epoch), at.Sub(due))
				}
				return
			}
		}
		t.Error("no query recorded")
	})
}

// TestAcknowledgedConversationHasNoDeadline: once every message either
// way is acknowledged, neither end has anything pending on the clock.
func TestAcknowledgedConversationHasNoDeadline(t *testing.T) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, _, _ *Proto, dc, sc xport.Conn) {
		buf := make([]byte, 64)
		dc.Write([]byte("ping"))
		sc.Read(buf)
		sc.Write([]byte("pong"))
		dc.Read(buf)
		v.Sleep(10 * time.Millisecond)
		for _, end := range []xport.Conn{dc, sc} {
			c := end.(*Conn)
			c.Mu.Lock()
			if armed := c.due.Armed(); !armed.IsZero() || len(c.unacked) != 0 {
				t.Errorf("%s end: %d unacknowledged, deadline armed for %v", stateNames[c.St], len(c.unacked), armed)
			}
			c.Mu.Unlock()
		}
	})
}

// TestAllocsRearmOnAck: the acks of a window re-arm the deadline without
// allocating. The first write arms the clock, the second leaves it, the
// first ack moves the deadline later (a field), and the last stops it.
func TestAllocsRearmOnAck(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var allocs float64
	onVirtualPair(t, ether.Profile{}, func(v *vclock.Virtual, _, p2 *Proto, dc, _ xport.Conn) {
		// Packets for the peer now reach its interface and stop there.
		p2.Stack.Close()
		c := dc.(*Conn)
		msg := make([]byte, 100)
		allocs = testing.AllocsPerRun(200, func() {
			dc.Write(msg)
			dc.Write(msg)
			v.Sleep(time.Millisecond)
			c.Mu.Lock()
			first := c.sndUna
			c.Mu.Unlock()
			c.input(header{typ: msgAck, ack: first}, nil)
			c.input(header{typ: msgAck, ack: first + 1}, nil)
		})
		c.Mu.Lock()
		if !c.due.Armed().IsZero() {
			t.Error("deadline still armed with everything acknowledged")
		}
		c.Mu.Unlock()
	})
	t.Logf("two messages written and acknowledged: %.1f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("a window's arm, re-arm and stop allocate %.1f objects, want 0", allocs)
	}
}
