package xport_test

import (
	"errors"
	"testing"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// stub is the least protocol that can sit on the scaffold: no wire, no
// handshake, no timer. Connect stops where a real protocol would send
// its opening packet.
type stub struct{ xport.Table }

type stubConn struct{ xport.Conv }

const stPassive = xport.NStates

var stubStates = []string{"Closed", "Listening", "Connecting", "Established", "Passive"}

func (c *stubConn) Connect(addr string) error {
	if err := c.BeginConnect(addr); err != nil {
		return err
	}
	c.Mu.Unlock()
	return nil
}
func (c *stubConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *stubConn) Status() string              { return c.State() }
func (c *stubConn) Close() error                { c.Remove(); return nil }

func (p *stub) newConn() *stubConn {
	c := &stubConn{}
	c.Init(&p.Table, c)
	return c
}

func (p *stub) spawn(l *xport.Conv, raddr ip.Addr, rport, lport uint16, peer uint32) *xport.Conv {
	c := p.newConn()
	c.Passive(l, raddr, rport, lport)
	c.St = stPassive
	return &c.Conv
}

var (
	here  = ip.Addr{135, 104, 9, 1}
	there = ip.Addr{135, 104, 9, 2}
)

// newStub puts a stub protocol on a stack with one Ethernet interface,
// so LocalAddrFor has a route to pick the local address from.
func newStub(t *testing.T, ephemBase uint16) *stub {
	t.Helper()
	seg := ether.NewSegment("e0", ether.Profile{})
	t.Cleanup(seg.Close)
	st := ip.NewStack()
	t.Cleanup(st.Close)
	if _, err := st.Bind(seg.NewInterface("ether0"), here, ip.Addr{255, 255, 255, 0}); err != nil {
		t.Fatal(err)
	}
	p := &stub{}
	p.Init(st, ephemBase, stubStates, p.spawn)
	return p
}

func announce(t *testing.T, p *stub, addr string) *stubConn {
	t.Helper()
	l := p.newConn()
	if err := l.Announce(addr); err != nil {
		t.Fatalf("announce %s: %v", addr, err)
	}
	return l
}

func TestDemuxLookupAndAnnounceAllFallback(t *testing.T) {
	p := newStub(t, 5000)
	if c := p.Demux(there, 4000, 564, true, 7); c != nil {
		t.Fatal("call with no listener found a conversation")
	}
	l564 := announce(t, p, "564")
	all := announce(t, p, "*")

	c := p.Demux(there, 4000, 564, true, 7)
	if c == nil || c.St != stPassive {
		t.Fatalf("opening packet to an announced port spawned %v", c)
	}
	if got := c.Self.LocalAddr(); got != "0.0.0.0!564" {
		t.Errorf("passive local address %q", got)
	}
	if got := c.Self.RemoteAddr(); got != "135.104.9.2!4000" {
		t.Errorf("passive remote address %q", got)
	}
	if again := p.Demux(there, 4000, 564, false, 0); again != c {
		t.Error("second packet of the conversation did not find it")
	}
	if other := p.Demux(there, 4001, 564, false, 0); other != nil {
		t.Error("non-opening packet from an unknown peer found a conversation")
	}

	// A service nobody announced lands on the port-0 listener (§5.2),
	// which learns the service from the new conversation's local port.
	d := p.Demux(there, 4000, 17008, true, 7)
	if d == nil || d == c {
		t.Fatal("announce-all listener did not take the call")
	}
	if got := d.Self.LocalAddr(); got != "0.0.0.0!17008" {
		t.Errorf("announce-all passive local address %q", got)
	}

	// Each passive end goes to the listener that spawned it.
	for _, tc := range []struct {
		l, c *xport.Conv
	}{{&l564.Conv, c}, {&all.Conv, d}} {
		tc.c.Mu.Lock()
		ok := tc.c.HandOffLocked()
		tc.c.Mu.Unlock()
		if !ok {
			t.Fatal("hand-off refused with an empty backlog")
		}
		got, err := tc.l.Listen()
		if err != nil || got != tc.c.Self {
			t.Errorf("Listen returned %v, %v; want the conversation handed off", got, err)
		}
		if tc.c.Self.(*stubConn).State() != "Established" {
			t.Errorf("handed-off state %s", tc.c.Self.(*stubConn).State())
		}
	}
}

func TestAnnounceErrors(t *testing.T) {
	p := newStub(t, 5000)
	l := announce(t, p, "*!564")
	if err := p.newConn().Announce("564"); err != xport.ErrInUse {
		t.Errorf("duplicate announce: %v, want ErrInUse", err)
	}
	if err := l.Announce("565"); err != xport.ErrConnected {
		t.Errorf("re-announce of a listening conversation: %v, want ErrConnected", err)
	}
	for _, bad := range []string{"", "0", "*!0", "1.2.3!564", "564!x"} {
		if err := p.newConn().Announce(bad); err != xport.ErrBadAddress {
			t.Errorf("announce %q: %v, want ErrBadAddress", bad, err)
		}
	}
	if _, err := p.newConn().Listen(); err != xport.ErrNotAnnounced {
		t.Errorf("listen unannounced: %v", err)
	}
	l.Close()
	if err := p.newConn().Announce("564"); err != nil {
		t.Errorf("announce after the holder closed: %v", err)
	}
}

// A dead conversation lingers past its close and removes itself again
// later; by then its key may belong to a successor.
func TestRemoveIgnoresStaleConversation(t *testing.T) {
	p := newStub(t, 5000)
	announce(t, p, "564")
	a := p.Demux(there, 4000, 564, true, 1)
	a.Remove()
	if p.Demux(there, 4000, 564, false, 0) != nil {
		t.Fatal("removed conversation still in the table")
	}
	b := p.Demux(there, 4000, 564, true, 2)
	if b == nil || b == a {
		t.Fatal("key not reusable after remove")
	}
	a.Remove() // stale: must not evict b
	if got := p.Demux(there, 4000, 564, false, 0); got != b {
		t.Error("stale remove evicted the successor under the reused key")
	}
}

func TestHandOffRefusals(t *testing.T) {
	p := newStub(t, 5000)
	l := announce(t, p, "564")
	handOff := func(rport uint16) bool {
		c := p.Demux(there, rport, 564, true, 1)
		c.Mu.Lock()
		defer c.Mu.Unlock()
		return c.HandOffLocked()
	}
	n := 0
	for handOff(uint16(4000 + n)) {
		if n++; n > 64 {
			t.Fatal("accept backlog never filled")
		}
	}
	if n == 0 {
		t.Fatal("first hand-off refused")
	}
	if _, err := l.Listen(); err != nil {
		t.Fatal(err)
	}
	if !handOff(5000) {
		t.Error("hand-off refused after Listen made room")
	}
	l.Accepted.Close()
	if handOff(5001) {
		t.Error("hand-off to a closed listener accepted")
	}
}

func TestConnectErrorsAndWaitOpen(t *testing.T) {
	p := newStub(t, 5000)
	for _, bad := range []string{"", "135.104.9.2", "135.104.9.2!0", "*!564", "bogus!564"} {
		if err := p.newConn().Connect(bad); err != xport.ErrBadAddress {
			t.Errorf("connect %q: %v, want ErrBadAddress", bad, err)
		}
	}
	if err := p.newConn().Connect("10.0.0.1!564"); err == nil {
		t.Error("connect with no route succeeded")
	}
	c := p.newConn()
	if err := c.Connect("135.104.9.2!564"); err != nil {
		t.Fatal(err)
	}
	if c.State() != "Connecting" || c.LocalAddr() != "135.104.9.1!5001" || c.RemoteAddr() != "135.104.9.2!564" {
		t.Errorf("after BeginConnect: %s %s -> %s", c.State(), c.LocalAddr(), c.RemoteAddr())
	}
	if c.ISS > 0xffffff {
		t.Errorf("initial sequence %#x wider than 24 bits", c.ISS)
	}
	if err := c.Connect("135.104.9.2!565"); err != xport.ErrConnected {
		t.Errorf("second connect: %v, want ErrConnected", err)
	}
	if p.Demux(there, 564, 5001, false, 0) != &c.Conv {
		t.Error("reply to the active open did not find it")
	}

	// The handshake's endings. A peer that answers and hangs up at
	// once has the conversation Closed again before WaitOpen looks:
	// that call succeeded all the same.
	done := make(chan error)
	go func() { done <- c.WaitOpen() }()
	c.Mu.Lock()
	c.OpenedLocked()
	c.Mu.Unlock()
	if err := <-done; err != nil {
		t.Errorf("WaitOpen on an established call: %v", err)
	}
	q := p.newConn()
	if err := q.Connect("135.104.9.2!564"); err != nil {
		t.Fatal(err)
	}
	q.Mu.Lock()
	q.OpenedLocked()
	q.HangupLocked()
	q.Mu.Unlock()
	if err := q.WaitOpen(); err != nil {
		t.Errorf("WaitOpen on a call answered and hung up at once: %v", err)
	}
	r := p.newConn()
	if err := r.Connect("135.104.9.2!564"); err != nil {
		t.Fatal(err)
	}
	go func() { done <- r.WaitOpen() }()
	r.Mu.Lock()
	r.HangupLocked()
	r.Mu.Unlock()
	if err := <-done; err != vfs.ErrConnRef {
		t.Errorf("WaitOpen on a refused call: %v, want ErrConnRef", err)
	}
}

// The allocator the dial path shares: the port sequence the engines
// always produced (base+1 first, base itself only after wrapping past
// 65535), busy ports skipped, and a full range an error rather than a
// spin under the engine lock.
func TestEphemeralWrapAndExhaustion(t *testing.T) {
	p := newStub(t, 65532)
	announce(t, p, "65534") // a listener inside the ephemeral range
	var conns []*stubConn
	for _, want := range []string{"135.104.9.1!65533", "135.104.9.1!65535", "135.104.9.1!65532"} {
		c := p.newConn()
		if err := c.Connect("135.104.9.2!564"); err != nil {
			t.Fatalf("connect wanting %s: %v", want, err)
		}
		if got := c.LocalAddr(); got != want {
			t.Errorf("local address %s, want %s", got, want)
		}
		conns = append(conns, c)
	}
	if err := p.newConn().Connect("135.104.9.2!564"); err != xport.ErrInUse {
		t.Fatalf("connect with every port held: %v, want ErrInUse", err)
	}
	conns[1].Close()
	c := p.newConn()
	if err := c.Connect("135.104.9.2!564"); err != nil || c.LocalAddr() != "135.104.9.1!65535" {
		t.Errorf("connect after a release: %v, local %s", err, c.LocalAddr())
	}
}

// A port stays held while anything uses it: a listener and the calls it
// accepted share one.
func TestPortsCountUsers(t *testing.T) {
	ports := xport.NewPorts(65534)
	ports.Hold(65535)
	ports.Hold(65535)
	ports.Release(65535)
	for i := 0; i < 3; i++ {
		if got, err := ports.Ephemeral(); err != nil || got != 65534 {
			t.Fatalf("ephemeral = %d, %v; want 65534 (65535 still has a user)", got, err)
		}
	}
	ports.Release(65535)
	if got, err := ports.Ephemeral(); err != nil || got != 65535 {
		t.Fatalf("ephemeral = %d, %v; want 65535 once released", got, err)
	}
	ports.Hold(65534)
	ports.Hold(65535)
	if _, err := ports.Ephemeral(); !errors.Is(err, xport.ErrInUse) {
		t.Fatalf("ephemeral with the range held: %v", err)
	}
}

func TestShutdownHangsUpEverything(t *testing.T) {
	p := newStub(t, 5000)
	l := announce(t, p, "564")
	c := p.Demux(there, 4000, 564, true, 1)
	dead := p.Demux(there, 4001, 564, true, 1)
	dead.Mu.Lock()
	dead.Err = vfs.ErrTimedOut
	dead.HangupLocked()
	dead.Mu.Unlock()

	p.Close()
	if _, err := l.Listen(); err == nil {
		t.Error("Listen on a shut-down listener returned a call")
	}
	if c.Self.(*stubConn).State() != "Closed" || c.Err != vfs.ErrHungup {
		t.Errorf("live conversation after shutdown: %s, %v", c.Self.(*stubConn).State(), c.Err)
	}
	if dead.Err != vfs.ErrTimedOut {
		t.Errorf("shutdown overwrote the first error: %v", dead.Err)
	}
	if p.Demux(there, 4000, 564, false, 0) != nil || p.Demux(there, 4002, 564, true, 1) != nil {
		t.Error("table not empty after shutdown")
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("read after shutdown did not see the hangup")
	}
}
