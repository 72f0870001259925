package ip

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/obs"
	"repro/internal/vclock"
)

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("135.104.9.31")
	if err != nil || a != (Addr{135, 104, 9, 31}) {
		t.Fatalf("ParseAddr = %v, %v", a, err)
	}
	if a.String() != "135.104.9.31" {
		t.Errorf("String = %q", a)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
		}
	}
}

func TestMaskAndClassMask(t *testing.T) {
	a := Addr{135, 104, 9, 31}
	if a.Mask(Addr{255, 255, 255, 0}) != (Addr{135, 104, 9, 0}) {
		t.Error("Mask wrong")
	}
	if ClassMask(Addr{10, 0, 0, 1}) != (Addr{255, 0, 0, 0}) {
		t.Error("class A mask")
	}
	if ClassMask(Addr{135, 104, 0, 1}) != (Addr{255, 255, 0, 0}) {
		t.Error("class B mask")
	}
	if ClassMask(Addr{192, 168, 0, 1}) != (Addr{255, 255, 255, 0}) {
		t.Error("class C mask")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{ID: 99, TTL: 64, Proto: ProtoIL,
		Src: Addr{135, 104, 9, 31}, Dst: Addr{135, 104, 53, 11}}
	pkt := h.Marshal([]byte("transport payload"))
	g, payload, err := Unmarshal(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != 99 || g.TTL != 64 || g.Proto != ProtoIL || g.Src != h.Src || g.Dst != h.Dst {
		t.Errorf("header mismatch %+v", g)
	}
	if string(payload) != "transport payload" {
		t.Errorf("payload %q", payload)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	h := Header{TTL: 1, Proto: ProtoUDP, Src: Addr{1, 2, 3, 4}, Dst: Addr{5, 6, 7, 8}}
	pkt := h.Marshal([]byte("x"))
	// Flip a header bit: checksum must catch it.
	pkt[9] ^= 0x40
	if _, _, err := Unmarshal(pkt); err != ErrBadChecksum {
		t.Errorf("corrupted header error = %v", err)
	}
	if _, _, err := Unmarshal(pkt[:10]); err != ErrShortPacket {
		t.Errorf("short packet error = %v", err)
	}
	pkt2 := h.Marshal(nil)
	pkt2[0] = 0x46
	if _, _, err := Unmarshal(pkt2); err != ErrBadVersion {
		t.Errorf("bad version error = %v", err)
	}
}

// Property: marshaled headers always verify and round-trip.
func TestHeaderQuick(t *testing.T) {
	f := func(id uint16, ttl, proto uint8, src, dst [4]byte, n uint8) bool {
		h := Header{ID: id, TTL: ttl, Proto: proto, Src: src, Dst: dst}
		payload := make([]byte, n)
		g, p, err := Unmarshal(h.Marshal(payload))
		return err == nil && g.ID == id && g.TTL == ttl && g.Proto == proto &&
			g.Src == Addr(src) && g.Dst == Addr(dst) && len(p) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChecksumProperties(t *testing.T) {
	// Appending the checksum of p to p sums to zero.
	p := []byte{1, 2, 3, 4, 5, 6}
	ck := Checksum(p)
	q := append(append([]byte(nil), p...), byte(ck>>8), byte(ck))
	if Checksum(q) != 0 {
		t.Error("self-verifying checksum property violated")
	}
}

// twoHosts builds two machines on one ether segment.
func twoHosts(t *testing.T) (*Stack, *Stack, Addr, Addr) {
	t.Helper()
	seg := ether.NewSegment("e0", ether.Profile{})
	t.Cleanup(seg.Close)
	e1 := seg.NewInterface("ether0")
	e2 := seg.NewInterface("ether0")
	s1, s2 := NewStack(), NewStack()
	a1 := Addr{135, 104, 9, 1}
	a2 := Addr{135, 104, 9, 2}
	mask := Addr{255, 255, 255, 0}
	if _, err := s1.Bind(e1, a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(e2, a2, mask); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close(); s2.Close() })
	return s1, s2, a1, a2
}

func recvChan(st *Stack, proto uint8) chan []byte {
	ch := make(chan []byte, 16)
	st.Register(proto, func(src, dst Addr, payload []byte) {
		ch <- append([]byte(nil), payload...)
	})
	return ch
}

// send is SendBlock from a zero source for a payload the test keeps.
func send(st *Stack, proto uint8, dst Addr, payload []byte) error {
	return st.SendBlock(proto, Addr{}, dst, block.Copy(payload, block.DefaultHeadroom))
}

func expect(t *testing.T, ch chan []byte, want string) {
	t.Helper()
	select {
	case got := <-ch:
		if string(got) != want {
			t.Fatalf("received %q, want %q", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %q", want)
	}
}

func TestSendReceiveWithARP(t *testing.T) {
	s1, s2, a1, a2 := twoHosts(t)
	ch2 := recvChan(s2, ProtoUDP)
	ch1 := recvChan(s1, ProtoUDP)
	// First packet triggers ARP resolution and is held until reply.
	if err := send(s1, ProtoUDP, a2, []byte("first")); err != nil {
		t.Fatal(err)
	}
	expect(t, ch2, "first")
	// Replies use the learned entry (and re-learn from the request).
	if err := send(s2, ProtoUDP, a1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	expect(t, ch1, "back")
}

func TestLoopbackDelivery(t *testing.T) {
	s1, _, a1, _ := twoHosts(t)
	ch := recvChan(s1, ProtoIL)
	if err := send(s1, ProtoIL, a1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	expect(t, ch, "self")
	if err := send(s1, ProtoIL, Addr{127, 0, 0, 1}, []byte("lo")); err != nil {
		t.Fatal(err)
	}
	expect(t, ch, "lo")
}

// TestLoopbackKeepsSendOrder: local packets go through one queue, so
// they reach the transport in the order they were sent, however many
// are sent before the loopback process first runs.
func TestLoopbackKeepsSendOrder(t *testing.T) {
	s1, _, a1, _ := twoHosts(t)
	const n = 200
	got := make(chan int, n)
	s1.Register(ProtoIL, func(src, dst Addr, payload []byte) { got <- int(payload[0])<<8 | int(payload[1]) })
	for i := range n {
		if err := send(s1, ProtoIL, a1, []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		select {
		case j := <-got:
			if j != i {
				t.Fatalf("local packet %d arrived in place %d", j, i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("local packet %d never arrived", i)
		}
	}
}

// TestARPDropsAreCounted: a neighbour that never answers ARP holds 16
// packets and drops the rest at once; when the retries give up, the
// held ones are dropped too. Every drop is in /net/ipstats.
func TestARPDropsAreCounted(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment("e0", ether.Profile{Clock: v})
		defer seg.Close()
		st := NewStackClock(v)
		defer st.Close()
		if _, err := st.Bind(seg.NewInterface("ether0"), Addr{135, 104, 9, 1}, Addr{255, 255, 255, 0}); err != nil {
			t.Error(err)
			return
		}
		drops := func() int64 { return obs.ParseStats(st.Stats())["arp-drops"] }
		for range 20 {
			send(st, ProtoUDP, Addr{135, 104, 9, 99}, []byte("nobody"))
		}
		if got := drops(); got != 4 {
			t.Errorf("arp-drops %d with 20 packets for a silent neighbour, want 4 (hold queue of %d)", got, arpHold)
		}
		v.Sleep(time.Second)
		if got := drops(); got != 20 {
			t.Errorf("arp-drops %d once the retries gave up, want 20", got)
		}
	})
}

func TestNoRoute(t *testing.T) {
	s1, _, _, _ := twoHosts(t)
	err := send(s1, ProtoUDP, Addr{10, 9, 8, 7}, []byte("x"))
	if err == nil {
		t.Fatal("send to unreachable subnet succeeded")
	}
	if s1.NoRoute.Load() != 1 {
		t.Errorf("NoRoute counter %d", s1.NoRoute.Load())
	}
}

func TestForwardingThroughGateway(t *testing.T) {
	// Three machines, two subnets, one gateway in the middle — the
	// shape of the paper's ndb subnet entries with ipgw.
	segA := ether.NewSegment("eA", ether.Profile{})
	segB := ether.NewSegment("eB", ether.Profile{})
	defer segA.Close()
	defer segB.Close()

	maskC := Addr{255, 255, 255, 0}
	host1 := NewStack()
	gw := NewStack()
	host2 := NewStack()
	defer host1.Close()
	defer gw.Close()
	defer host2.Close()

	h1 := Addr{135, 104, 51, 2}
	gwA := Addr{135, 104, 51, 1}
	gwB := Addr{135, 104, 52, 1}
	h2 := Addr{135, 104, 52, 2}

	if _, err := host1.Bind(segA.NewInterface("e"), h1, maskC); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Bind(segA.NewInterface("e"), gwA, maskC); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Bind(segB.NewInterface("e"), gwB, maskC); err != nil {
		t.Fatal(err)
	}
	if _, err := host2.Bind(segB.NewInterface("e"), h2, maskC); err != nil {
		t.Fatal(err)
	}
	gw.SetForwarding(true)
	host1.AddRoute(Addr{135, 104, 52, 0}, maskC, gwA)
	host2.AddRoute(Addr{135, 104, 51, 0}, maskC, gwB)

	ch := recvChan(host2, ProtoUDP)
	if err := send(host1, ProtoUDP, h2, []byte("via gateway")); err != nil {
		t.Fatal(err)
	}
	expect(t, ch, "via gateway")
	if gw.Forwarded.Load() == 0 {
		t.Error("gateway forwarded counter is zero")
	}
	// And the reverse path.
	ch1 := recvChan(host1, ProtoUDP)
	if err := send(host2, ProtoUDP, h1, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	expect(t, ch1, "reply")
}

func TestDefaultRoute(t *testing.T) {
	segA := ether.NewSegment("eA", ether.Profile{})
	defer segA.Close()
	mask := Addr{255, 255, 255, 0}
	h := NewStack()
	gw := NewStack()
	defer h.Close()
	defer gw.Close()
	ha := Addr{192, 168, 1, 2}
	gwa := Addr{192, 168, 1, 1}
	h.Bind(segA.NewInterface("e"), ha, mask)
	gw.Bind(segA.NewInterface("e"), gwa, mask)
	h.AddDefaultRoute(gwa)
	// The gateway has no route onward, but the packet must at least
	// reach it (count as received there since it's addressed beyond).
	if err := send(h, ProtoUDP, Addr{8, 8, 8, 8}, []byte("out")); err != nil {
		t.Fatalf("default route send: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // delivery is asynchronous via ARP
}

func TestLocalAddrForAndMTU(t *testing.T) {
	s1, _, a1, a2 := twoHosts(t)
	la, err := s1.LocalAddrFor(a2)
	if err != nil || la != a1 {
		t.Errorf("LocalAddrFor = %v, %v", la, err)
	}
	if mtu := s1.MTUFor(a2); mtu != 1500-HdrLen {
		t.Errorf("MTUFor = %d", mtu)
	}
	if mtu := s1.MTUFor(a1); mtu != 64*1024 {
		t.Errorf("local MTUFor = %d", mtu)
	}
}

func TestStatsText(t *testing.T) {
	s1, _, _, a2 := twoHosts(t)
	recvChan(s1, ProtoUDP)
	send(s1, ProtoUDP, a2, []byte("x"))
	if s := s1.Stats(); s == "" {
		t.Error("empty stats")
	}
	if s1.OutPackets.Load() != 1 {
		t.Errorf("out packets %d", s1.OutPackets.Load())
	}
}
