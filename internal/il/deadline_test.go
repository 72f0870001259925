package il

import (
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/streams"
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

// life says what is left of closed conversation c: whether p's table
// still holds it ("listed" or "gone") and whether its stream is still
// open ("open" or "closed"). A closed stream refuses a write with
// ErrClosed; one only hung up, with ErrHungup.
func life(p *Proto, c *Conn) string {
	where := "gone"
	if p.Demux(c.Raddr, c.Rport, c.Lport, false, 0) == &c.Conv {
		where = "listed"
	}
	if _, err := c.Stream().Write(nil); err == streams.ErrClosed {
		return where + ", closed"
	}
	return where + ", open"
}

// lifeAt returns what describe says just before at and once everything
// due at at has run.
func lifeAt(v *vclock.Virtual, at time.Time, describe func() string) (before, after string) {
	v.SleepUntil(at.Add(-time.Nanosecond))
	before = describe()
	v.SleepUntil(at)
	v.Sleep(0)
	return before, describe()
}

// TestCloseEndsOnTheLinger: the closer lingers 200 ms after its Close,
// then leaves the table and closes its stream at that instant, though
// the peer answered long before. The peer, closed by then, leaves the
// table at its own Close and closes its stream 200 ms later.
func TestCloseEndsOnTheLinger(t *testing.T) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		d, s := dc.(*Conn), sc.(*Conn)
		warmLAN(v, dc, sc)
		closed := v.Now()
		dc.Close()
		if n, err := sc.Read(make([]byte, 64)); err == nil {
			t.Errorf("read %d bytes after the close, want EOF", n)
			return
		}
		heard := v.Now()
		sc.Close()
		if got := life(p2, s); got != "gone, open" {
			t.Errorf("the peer at its Close: %s, want gone, open", got)
		}
		for _, c := range []struct {
			name   string
			p      *Proto
			c      *Conn
			at     time.Time
			before string
		}{
			{"closer", p1, d, closed.Add(200 * time.Millisecond), "listed, open"},
			{"peer", p2, s, heard.Add(200 * time.Millisecond), "gone, open"},
		} {
			before, after := lifeAt(v, c.at, func() string { return life(c.p, c.c) })
			if before != c.before || after != "gone, closed" {
				t.Errorf("%s %v after close: %s, then %s; want %s, then gone, closed",
					c.name, c.at.Sub(closed), before, after, c.before)
			}
		}
		if heard.Sub(closed) != 244800*time.Nanosecond {
			t.Errorf("the peer heard the close %v after it, want 244.8µs", heard.Sub(closed))
		}
	})
}

// TestUnansweredCloseEndsOnTheLinger: the peer hears nothing. The
// closer resends its close every timeout (10 ms on a warm LAN) until
// its linger ends 200 ms after Close; the resend due at that very
// instant does not go out, and nothing goes out after it.
func TestUnansweredCloseEndsOnTheLinger(t *testing.T) {
	onVirtualPair(t, lan, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		d := dc.(*Conn)
		warmLAN(v, dc, sc)
		var closes []time.Duration
		var start time.Time
		p2.Stack.Register(ip.ProtoIL, func(_, _ ip.Addr, payload []byte) {
			if h, _, ok := unmarshal(payload); ok && h.typ == msgClose {
				closes = append(closes, v.Since(start))
			}
		})
		start = v.Now()
		dc.Close()
		end := start.Add(200 * time.Millisecond)
		if before, after := lifeAt(v, end, func() string { return life(p1, d) }); before != "listed, open" || after != "gone, closed" {
			t.Errorf("at the linger's end: %s, then %s; want listed, open, then gone, closed", before, after)
		}
		v.Sleep(time.Second)
		if len(closes) != 20 || closes[19] != 190*time.Millisecond+closes[0] {
			t.Errorf("closes arrived at %v, want 20, 10 ms apart", closes)
		}
	})
}
