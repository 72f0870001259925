package tcp

import (
	"io"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// intercept runs every segment p receives past see first; a true return
// drops it where p's TCP would have taken it.
func intercept(p *Proto, see func(h header, data []byte) (drop bool)) {
	p.Stack.Register(ip.ProtoTCP, func(src, dst ip.Addr, payload []byte) {
		if h, data, ok := unmarshal(payload); ok && see(h, data) {
			return
		}
		p.recv(src, dst, payload)
	})
}

// echo serves sc on its own goroutine: every read is written back.
func echo(v *vclock.Virtual, sc xport.Conn) {
	v.Go(func() {
		buf := make([]byte, 4096)
		for {
			n, err := sc.Read(buf)
			if err != nil {
				return
			}
			if _, err := sc.Write(buf[:n]); err != nil {
				return
			}
		}
	})
}

// roundTrip writes msg on dc and reads as many bytes back.
func roundTrip(dc xport.Conn, msg string) error {
	if _, err := dc.Write([]byte(msg)); err != nil {
		return err
	}
	_, err := io.ReadFull(dc, make([]byte, len(msg)))
	return err
}

// TestDialSendsOneSynEachWay: across the WAN profile's Ethernet
// (core.WANProfiles: 100 Mb/s, 5 ms each way) a clean dial's round trip
// is well under synRetry, so neither end resends its SYN.
func TestDialSendsOneSynEachWay(t *testing.T) {
	wan := ether.Profile{Bandwidth: 100_000_000 / 8, Latency: 5 * time.Millisecond}
	onVirtual(t, wan, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		syns := make([]int, len(ps))
		for i, p := range ps {
			intercept(p, func(h header, _ []byte) bool {
				if h.flags&flagSYN != 0 {
					syns[i]++
				}
				return false
			})
		}
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		v.Sleep(time.Second)
		if syns[1] != 1 || syns[0] != 1 {
			t.Errorf("the acceptor received %d SYNs and the dialer %d SYN|ACKs; want one each", syns[1], syns[0])
		}
	})
}

// TestIdleConnectionOutlivesDeathTime: death is for a peer that stops
// answering, not for one with nothing to say. An established pair idle
// for twice deathTime still echoes.
func TestIdleConnectionOutlivesDeathTime(t *testing.T) {
	onVirtual(t, ether.Profile{}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		echo(v, sc)
		if err := roundTrip(dc, "before"); err != nil {
			t.Error(err)
			return
		}
		v.Sleep(2 * deathTime)
		if err := roundTrip(dc, "after"); err != nil {
			t.Errorf("echo after %v idle: %v", 2*deathTime, err)
		}
	})
}

// TestRetransmitFiresExactlyAtTimeout: one data segment is lost; the
// go-back-N resend goes out exactly the retransmission timeout after
// it was sent.
func TestRetransmitFiresExactlyAtTimeout(t *testing.T) {
	lan := ether.Profile{Latency: 200 * time.Microsecond, Bandwidth: 10_000_000 / 8}
	onVirtual(t, lan, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		lost := false
		intercept(ps[1], func(h header, data []byte) bool {
			if len(data) > 0 && !lost {
				lost = true
				return true
			}
			return false
		})
		c := dc.(*Conn)
		epoch := v.Now()
		c.Ring.Enable(v)
		dc.Write([]byte("lost once"))
		c.Mu.Lock()
		due := c.oldestTx.Add(c.RTT.RTO(minRTO, maxRTO, synRetry))
		c.Mu.Unlock()
		if _, err := io.ReadFull(sc, make([]byte, len("lost once"))); err != nil {
			t.Error(err)
			return
		}
		for _, e := range c.Ring.Events() {
			if e.Kind == obs.EvRetransmit {
				if at := epoch.Add(e.When); !at.Equal(due) {
					t.Errorf("retransmission at %v, %v after it was due", at.Sub(epoch), at.Sub(due))
				}
				return
			}
		}
		t.Error("no retransmission recorded")
	})
}

// TestAcknowledgedConnectionHasNoDeadline: once every byte either way is
// acknowledged, neither end has anything pending on the clock.
func TestAcknowledgedConnectionHasNoDeadline(t *testing.T) {
	onVirtual(t, ether.Profile{}, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer dc.Close()
		defer sc.Close()
		echo(v, sc)
		if err := roundTrip(dc, "ping"); err != nil {
			t.Error(err)
			return
		}
		v.Sleep(10 * time.Millisecond)
		for _, end := range []xport.Conn{dc, sc} {
			c := end.(*Conn)
			c.Mu.Lock()
			if armed := c.due.Armed(); !armed.IsZero() || c.sndUna != c.sndNxt {
				t.Errorf("%s end: %d bytes unacknowledged, deadline armed for %v", stateNames[c.St], c.sndNxt-c.sndUna, armed)
			}
			c.Mu.Unlock()
		}
	})
}

// life says what is left of closed conversation c: whether p's table
// still holds it ("listed" or "gone") and whether its stream is still
// open ("open" or "closed"). A closed stream refuses a write with
// ErrClosed; an open one takes the empty write and sends nothing.
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

// TestCloseEndsOnTheLinger: a conversation leaves the table when it
// dies, and its stream closes 2 s after its Close. The closer dies
// Time_wait (200 ms) after the peer's FIN reaches it; the peer, which
// closed on reading EOF, dies as the ack of its own FIN arrives.
func TestCloseEndsOnTheLinger(t *testing.T) {
	lan := ether.Profile{Latency: 200 * time.Microsecond, Bandwidth: 10_000_000 / 8}
	onVirtual(t, lan, 2, func(v *vclock.Virtual, ps []*Proto, as []ip.Addr) {
		dc, sc, err := dialVirtual(v, ps[0], ps[1], as[1])
		if err != nil {
			t.Error(err)
			return
		}
		d, s := dc.(*Conn), sc.(*Conn)
		var finAt, diedAt time.Time
		intercept(ps[0], func(h header, _ []byte) bool {
			if h.flags&flagFIN != 0 {
				finAt = v.Now()
			}
			return false
		})
		ps[1].Stack.Register(ip.ProtoTCP, func(src, dst ip.Addr, payload []byte) {
			lastAck := s.State() == "Last_ack"
			if lastAck && life(ps[1], s) != "listed, open" {
				t.Errorf("the peer in Last_ack: %s, want listed, open", life(ps[1], s))
			}
			ps[1].recv(src, dst, payload)
			if lastAck && s.State() == "Closed" {
				diedAt = v.Now()
				v.Go(func() {
					if got := life(ps[1], s); got != "gone, open" || v.Now() != diedAt {
						t.Errorf("the peer at %v, as it died: %s, want gone, open", v.Since(diedAt), got)
					}
				})
			}
		})
		closed := v.Now()
		dc.Close()
		if n, err := sc.Read(make([]byte, 64)); err != io.EOF {
			t.Errorf("read %d bytes, %v after the close, want EOF", n, err)
			return
		}
		heard := v.Now()
		sc.Close()
		v.Sleep(10 * time.Millisecond) // the FINs and their acks cross
		for _, c := range []struct {
			name          string
			p             *Proto
			c             *Conn
			at            time.Time
			before, after string
		}{
			{"closer leaving Time_wait", ps[0], d, finAt.Add(200 * time.Millisecond), "listed, open", "gone, open"},
			{"closer's stream", ps[0], d, closed.Add(2 * time.Second), "gone, open", "gone, closed"},
			{"peer's stream", ps[1], s, heard.Add(2 * time.Second), "gone, open", "gone, closed"},
		} {
			before, after := lifeAt(v, c.at, func() string { return life(c.p, c.c) })
			if before != c.before || after != c.after {
				t.Errorf("%s, %v after close: %s, then %s; want %s, then %s",
					c.name, c.at.Sub(closed), before, after, c.before, c.after)
			}
		}
		if got := []time.Duration{heard.Sub(closed), finAt.Sub(closed), diedAt.Sub(closed)}; got[0] != 244800 || got[1] != 534400 || got[2] != 779200 {
			t.Errorf("EOF, FIN back and the peer's death at %v after the close", got)
		}
	})
}

// TestUnansweredCloseEndsOnTheLinger: the peer hears nothing. The
// closer resends its FIN every timeout (20 ms on a LAN) and, 2 s after
// its Close, dies, leaves the table and closes its stream at once; the
// resend due at that very instant does not go out.
func TestUnansweredCloseEndsOnTheLinger(t *testing.T) {
	lan := ether.Profile{Latency: 200 * time.Microsecond, Bandwidth: 10_000_000 / 8}
	onPair(t, lan, func(v *vclock.Virtual, dc, sc xport.Conn) {
		d, s := dc.(*Conn), sc.(*Conn)
		echo(v, sc)
		for range 5 {
			if err := roundTrip(dc, "warm"); err != nil {
				t.Error(err)
				return
			}
			v.Sleep(30 * time.Millisecond)
		}
		var fins []time.Duration
		var start time.Time
		intercept(s.proto, func(h header, _ []byte) bool {
			if h.flags&flagFIN != 0 {
				fins = append(fins, v.Since(start))
			}
			return true
		})
		start = v.Now()
		dc.Close()
		end := start.Add(2 * time.Second)
		if before, after := lifeAt(v, end, func() string { return life(d.proto, d) }); before != "listed, open" || after != "gone, closed" {
			t.Errorf("at the linger's end: %s, then %s; want listed, open, then gone, closed", before, after)
		}
		v.Sleep(time.Second)
		if len(fins) != 100 || fins[99] != 1980*time.Millisecond+fins[0] {
			t.Errorf("%d FINs arrived, the last %v after the close; want 100, 20 ms apart", len(fins), fins[len(fins)-1])
		}
	})
}
