package tcp

import (
	"io"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/obs"
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
