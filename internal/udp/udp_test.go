package udp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// onPair runs body on a fresh virtual clock with UDP on two machines
// of one ideal ether segment.
func onPair(t *testing.T, body func(ck vclock.Clock, p1, p2 *Proto, a1, a2 ip.Addr)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment(ether.Profile{Clock: v})
		defer seg.Close()
		s1, s2 := ip.NewStack(v), ip.NewStack(v)
		defer s1.Close()
		defer s2.Close()
		a1 := ip.Addr{10, 0, 0, 1}
		a2 := ip.Addr{10, 0, 0, 2}
		mask := ip.Addr{255, 255, 255, 0}
		if _, err := s1.Bind(seg.NewInterface("e"), a1, mask); err != nil {
			t.Error(err)
			return
		}
		if _, err := s2.Bind(seg.NewInterface("e"), a2, mask); err != nil {
			t.Error(err)
			return
		}
		body(v, New(s1), New(s2), a1, a2)
	})
}

// read reads the next datagram c delivers into buf; ok is false, and
// the test failed, if none arrives within a simulated second.
func read(t *testing.T, ck vclock.Clock, c xport.Conn, buf []byte) (n int, ok bool) {
	t.Helper()
	type res struct {
		n   int
		err error
	}
	got := vclock.NewMailbox[res](ck, 2)
	ck.Go(func() {
		n, err := c.Read(buf)
		got.TrySend(res{n, err})
	})
	watchdog := ck.AfterFunc(time.Second, func() { got.TrySend(res{err: errors.New("udp read timed out")}) })
	defer watchdog.Stop()
	r, _ := got.Recv()
	if r.err != nil {
		t.Error(r.err)
		return 0, false
	}
	return r.n, true
}

func TestConnectedDatagrams(t *testing.T) {
	onPair(t, func(ck vclock.Clock, p1, p2 *Proto, a1, a2 ip.Addr) {
		srv, _ := p2.NewConn()
		if err := srv.Announce("53"); err != nil {
			t.Error(err)
			return
		}
		defer srv.Close()
		cli, _ := p1.NewConn()
		if err := cli.Connect(ip.HostPort(a2, 53)); err != nil {
			t.Error(err)
			return
		}
		defer cli.Close()
		cli.Write([]byte("query"))
		// Announced conversations read in headers mode.
		buf := make([]byte, 256)
		n, ok := read(t, ck, srv, buf)
		if !ok {
			return
		}
		if n < AddrHdrLen {
			t.Errorf("short headers-mode read %d", n)
			return
		}
		var from ip.Addr
		copy(from[:], buf[:4])
		if from != a1 {
			t.Errorf("headers-mode source %v, want %v", from, a1)
		}
		if string(buf[AddrHdrLen:n]) != "query" {
			t.Errorf("payload %q", buf[AddrHdrLen:n])
		}
		// Reply through the same prefix.
		reply := append(append([]byte{}, buf[:AddrHdrLen]...), []byte("answer")...)
		if _, err := srv.Write(reply); err != nil {
			t.Error(err)
			return
		}
		if n, ok = read(t, ck, cli, buf); ok && string(buf[:n]) != "answer" {
			t.Errorf("client got %q", buf[:n])
		}
	})
}

func TestConnectedFiltersOtherPeers(t *testing.T) {
	onPair(t, func(ck vclock.Clock, p1, p2 *Proto, _, a2 ip.Addr) {
		srv, _ := p2.NewConn()
		srv.Announce("99")
		defer srv.Close()
		cli, _ := p1.NewConn()
		cli.Connect(ip.HostPort(a2, 99))
		defer cli.Close()
		// A datagram from a different local port must not reach cli.
		other, _ := p2.NewConn()
		other.Announce("98")
		defer other.Close()
		cli.Write([]byte("hello")) // learn cli's port on srv
		buf := make([]byte, 256)
		n, ok := read(t, ck, srv, buf)
		if !ok || n < AddrHdrLen {
			return
		}
		hdr := append([]byte{}, buf[:AddrHdrLen]...)
		// Send to cli from the WRONG port (98, not 99).
		other.Write(append(hdr, []byte("spoof")...))
		// And the real reply from 99.
		srv.Write(append(hdr, []byte("genuine")...))
		if n, ok = read(t, ck, cli, buf); ok && string(buf[:n]) != "genuine" {
			t.Errorf("connected conversation accepted %q", buf[:n])
		}
	})
}

func TestDatagramBoundariesPreserved(t *testing.T) {
	onPair(t, func(ck vclock.Clock, p1, p2 *Proto, _, a2 ip.Addr) {
		srv, _ := p2.NewConn()
		srv.Announce("7")
		defer srv.Close()
		cli, _ := p1.NewConn()
		cli.Connect(ip.HostPort(a2, 7))
		defer cli.Close()
		cli.Write([]byte("one"))
		cli.Write([]byte("two two"))
		buf := make([]byte, 256)
		for _, want := range []string{"one", "two two"} {
			n, ok := read(t, ck, srv, buf)
			if !ok {
				return
			}
			if got := string(buf[AddrHdrLen:n]); got != want {
				t.Errorf("datagram %q, want %q", got, want)
			}
		}
	})
}

// A conversation nobody reads must not stall the Ethernet line its
// datagrams arrive on: the line's process delivers them, and a delivery
// that parked on the unread stream's flow control would hold every
// station's frames behind it. The datagrams the stream refuses, once
// it holds its limit, are dropped and counted, and the next
// conversation's datagram arrives.
func TestUnreadConversationDoesNotStallTheLine(t *testing.T) {
	onPair(t, func(ck vclock.Clock, p1, p2 *Proto, _, a2 ip.Addr) {
		unread, _ := p2.NewConn()
		unread.Announce("53")
		defer unread.Close()
		other, _ := p2.NewConn()
		other.Announce("54")
		defer other.Close()
		flood, _ := p1.NewConn()
		flood.Connect(ip.HostPort(a2, 53))
		defer flood.Close()
		cli, _ := p1.NewConn()
		cli.Connect(ip.HostPort(a2, 54))
		defer cli.Close()
		// One exchange first, so the flood does not wait on ARP.
		cli.Write([]byte("arp"))
		buf := make([]byte, 2048)
		if _, ok := read(t, ck, other, buf); !ok {
			return
		}
		const n, size = 200, 1024
		for range n {
			flood.Write(make([]byte, size))
		}
		cli.Write([]byte("last"))
		if n, ok := read(t, ck, other, buf); ok && string(buf[AddrHdrLen:n]) != "last" {
			t.Errorf("second conversation read %q, want %q", buf[AddrHdrLen:n], "last")
		}
		// A datagram is queued while the stream holds less than its
		// limit, and refused from there on.
		queued := (streams.DefaultLimit + AddrHdrLen + size - 1) / (AddrHdrLen + size)
		if q := unread.Stream().QueuedBytes(); q != queued*(AddrHdrLen+size) {
			t.Errorf("unread conversation holds %d bytes, want %d datagrams' worth", q, queued)
		}
		want := fmt.Sprintf("overflows: %d\n", n-queued)
		if got := p2.StatsGroup().Render(); got != want {
			t.Errorf("/net/udp/stats counters %q, want %q", got, want)
		}
	})
}

func TestPortCollisionAndRelease(t *testing.T) {
	onPair(t, func(_ vclock.Clock, p1, _ *Proto, _, _ ip.Addr) {
		a, _ := p1.NewConn()
		if err := a.Announce("53"); err != nil {
			t.Error(err)
			return
		}
		b, _ := p1.NewConn()
		if err := b.Announce("53"); err != xport.ErrInUse {
			t.Errorf("duplicate announce = %v", err)
		}
		a.Close()
		if err := b.Announce("53"); err != nil {
			t.Errorf("after release: %v", err)
		}
		b.Close()
	})
}

func TestWriteErrors(t *testing.T) {
	onPair(t, func(_ vclock.Clock, p1, _ *Proto, _, _ ip.Addr) {
		c, _ := p1.NewConn()
		defer c.Close()
		if _, err := c.Write([]byte("x")); err != xport.ErrNotConnected {
			t.Errorf("unbound write = %v", err)
		}
		if err := c.Connect("not an address"); err == nil {
			t.Error("bad address accepted")
		}
		if err := c.Connect("10.0.0.2!0"); err == nil {
			t.Error("port 0 connect accepted")
		}
		if _, err := c.Listen(); err == nil {
			t.Error("udp listen succeeded")
		}
	})
}

func TestStatusAndAddrs(t *testing.T) {
	onPair(t, func(_ vclock.Clock, p1, _ *Proto, _, a2 ip.Addr) {
		c, _ := p1.NewConn()
		if c.Status() != "Open" {
			t.Errorf("fresh status %q", c.Status())
		}
		c.Connect(ip.HostPort(a2, 9))
		if c.Status() != "Connected" {
			t.Errorf("connected status %q", c.Status())
		}
		if c.RemoteAddr() != ip.HostPort(a2, 9) {
			t.Errorf("remote %q", c.RemoteAddr())
		}
		c.Close()
		if c.Status() != "Closed" {
			t.Errorf("closed status %q", c.Status())
		}
		a, _ := p1.NewConn()
		a.Announce("111")
		if a.Status() != "Announced" {
			t.Errorf("announced status %q", a.Status())
		}
		a.Close()
	})
}

func TestOversizeAndRunt(t *testing.T) {
	onPair(t, func(ck vclock.Clock, p1, p2 *Proto, _, a2 ip.Addr) {
		srv, _ := p2.NewConn()
		srv.Announce("5")
		defer srv.Close()
		cli, _ := p1.NewConn()
		cli.Connect(ip.HostPort(a2, 5))
		defer cli.Close()
		// Over-MTU datagrams are rejected by IP.
		if _, err := cli.Write(make([]byte, 2000)); err == nil {
			t.Error("over-MTU datagram sent")
		}
		// Empty datagrams carry.
		if _, err := cli.Write(nil); err != nil {
			t.Errorf("empty datagram: %v", err)
		}
		buf := make([]byte, 64)
		if n, ok := read(t, ck, srv, buf); ok && n != AddrHdrLen {
			t.Errorf("empty datagram read %d bytes", n)
		}
	})
}
