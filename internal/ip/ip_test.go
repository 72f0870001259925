package ip

import (
	"bytes"
	"math/rand/v2"
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

// rfc1071 is the Internet checksum as RFC 1071 states it: big-endian
// byte pairs summed with the carries folded back in, an odd last byte
// padded with a zero.
func rfc1071(p []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(p); i += 2 {
		sum += uint32(p[i])<<8 | uint32(p[i+1])
	}
	if len(p)%2 == 1 {
		sum += uint32(p[len(p)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Checksum agrees with the byte-pair loop at every length and
// alignment: odd lengths, starts off a word boundary, and all-ones data,
// whose 64-bit sums carry on every add.
func TestChecksumMatchesRFC1071(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 9100+8)
	ones := bytes.Repeat([]byte{0xff}, len(buf))
	check := func(p []byte, what string) {
		if got, want := Checksum(p), rfc1071(p); got != want {
			t.Fatalf("%s, %d bytes: Checksum = %#04x, byte pairs = %#04x", what, len(p), got, want)
		}
	}
	for n := range 300 {
		for off := range 8 {
			check(ones[off:off+n], "all ones")
			check(buf[off:off+n], "all zeros")
		}
	}
	for range 20000 {
		n, off := rng.IntN(9101), rng.IntN(8)
		p := buf[off : off+n]
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		check(p, "random")
		if rng.IntN(4) == 0 {
			// Runs of 0xff make the word adds carry out in a row.
			for i := range p {
				if rng.IntN(8) != 0 {
					p[i] = 0xff
				}
			}
			check(p, "mostly ones")
		}
	}
}

func BenchmarkChecksum8K(b *testing.B) {
	p := make([]byte, 8192)
	for i := range p {
		p[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		Checksum(p)
	}
}

// BenchmarkChecksumBytePairs8K is the RFC 1071 loop Checksum is
// measured against.
func BenchmarkChecksumBytePairs8K(b *testing.B) {
	p := make([]byte, 8192)
	for i := range p {
		p[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		rfc1071(p)
	}
}

// onTwoHosts runs body on a fresh virtual clock with two machines on
// one ideal ether segment.
func onTwoHosts(t *testing.T, body func(v *vclock.Virtual, s1, s2 *Stack, a1, a2 Addr)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment(ether.Profile{Clock: v})
		defer seg.Close()
		s1, s2 := NewStack(v), NewStack(v)
		defer s1.Close()
		defer s2.Close()
		a1 := Addr{135, 104, 9, 1}
		a2 := Addr{135, 104, 9, 2}
		mask := Addr{255, 255, 255, 0}
		if _, err := s1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
			t.Error(err)
			return
		}
		if _, err := s2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
			t.Error(err)
			return
		}
		body(v, s1, s2, a1, a2)
	})
}

// recvBox queues a copy of every payload st receives for proto.
func recvBox(st *Stack, proto uint8) *vclock.Mailbox[[]byte] {
	mb := vclock.NewMailbox[[]byte](st.Clock(), 0)
	st.Register(proto, func(src, dst Addr, payload []byte) {
		mb.TrySend(append([]byte(nil), payload...))
	})
	return mb
}

// send is SendBlock from a zero source for a payload the test keeps.
func send(st *Stack, proto uint8, dst Addr, payload []byte) error {
	return st.SendBlock(proto, Addr{}, dst, block.Copy(payload, block.DefaultHeadroom))
}

// expect reports whether the next payload in mb, the receive box of a
// protocol on st, is want and arrives within a simulated second.
func expect(t *testing.T, st *Stack, mb *vclock.Mailbox[[]byte], want string) bool {
	t.Helper()
	watchdog := st.Clock().AfterFunc(time.Second, func() { mb.TrySend(nil) })
	defer watchdog.Stop()
	got, _ := mb.Recv()
	if string(got) != want {
		t.Errorf("received %q, want %q", got, want)
		return false
	}
	return true
}

func TestSendReceiveWithARP(t *testing.T) {
	onTwoHosts(t, func(_ *vclock.Virtual, s1, s2 *Stack, a1, a2 Addr) {
		mb2 := recvBox(s2, ProtoUDP)
		mb1 := recvBox(s1, ProtoUDP)
		// First packet triggers ARP resolution and is held until reply.
		if err := send(s1, ProtoUDP, a2, []byte("first")); err != nil {
			t.Error(err)
			return
		}
		if !expect(t, s2, mb2, "first") {
			return
		}
		// Replies use the learned entry (and re-learn from the request).
		if err := send(s2, ProtoUDP, a1, []byte("back")); err != nil {
			t.Error(err)
			return
		}
		expect(t, s1, mb1, "back")
	})
}

func TestLoopbackDelivery(t *testing.T) {
	onTwoHosts(t, func(_ *vclock.Virtual, s1, _ *Stack, a1, _ Addr) {
		mb := recvBox(s1, ProtoIL)
		if err := send(s1, ProtoIL, a1, []byte("self")); err != nil {
			t.Error(err)
			return
		}
		if !expect(t, s1, mb, "self") {
			return
		}
		if err := send(s1, ProtoIL, Addr{127, 0, 0, 1}, []byte("lo")); err != nil {
			t.Error(err)
			return
		}
		expect(t, s1, mb, "lo")
	})
}

// TestLoopbackKeepsSendOrder: local packets go through one queue, so
// they reach the transport in the order they were sent, however many
// are sent before the loopback process first runs.
func TestLoopbackKeepsSendOrder(t *testing.T) {
	onTwoHosts(t, func(_ *vclock.Virtual, s1, _ *Stack, a1, _ Addr) {
		const n = 200
		mb := recvBox(s1, ProtoIL)
		for i := range n {
			if err := send(s1, ProtoIL, a1, []byte{byte(i >> 8), byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := range n {
			if !expect(t, s1, mb, string([]byte{byte(i >> 8), byte(i)})) {
				t.Errorf("local packet %d did not arrive in its place", i)
				return
			}
		}
	})
}

// TestARPDropsAreCounted: a neighbour that never answers ARP holds 16
// packets and drops the rest at once; when the retries give up, the
// held ones are dropped too. Every drop is in /net/ipstats.
func TestARPDropsAreCounted(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment(ether.Profile{Clock: v})
		defer seg.Close()
		st := NewStack(v)
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
	onTwoHosts(t, func(_ *vclock.Virtual, s1, _ *Stack, _, _ Addr) {
		err := send(s1, ProtoUDP, Addr{10, 9, 8, 7}, []byte("x"))
		if err == nil {
			t.Error("send to unreachable subnet succeeded")
		}
		if s1.NoRoute.Load() != 1 {
			t.Errorf("NoRoute counter %d", s1.NoRoute.Load())
		}
	})
}

func TestForwardingThroughGateway(t *testing.T) {
	// Three machines, two subnets, one gateway in the middle — the
	// shape of the paper's ndb subnet entries with ipgw.
	v := vclock.NewVirtual()
	v.Run(func() {
		segA := ether.NewSegment(ether.Profile{Clock: v})
		segB := ether.NewSegment(ether.Profile{Clock: v})
		defer segA.Close()
		defer segB.Close()

		maskC := Addr{255, 255, 255, 0}
		host1 := NewStack(v)
		gw := NewStack(v)
		host2 := NewStack(v)
		defer host1.Close()
		defer gw.Close()
		defer host2.Close()

		h1 := Addr{135, 104, 51, 2}
		gwA := Addr{135, 104, 51, 1}
		gwB := Addr{135, 104, 52, 1}
		h2 := Addr{135, 104, 52, 2}

		for _, b := range []struct {
			st  *Stack
			seg *ether.Segment
			a   Addr
		}{{host1, segA, h1}, {gw, segA, gwA}, {gw, segB, gwB}, {host2, segB, h2}} {
			if _, err := b.st.Bind(b.seg.NewInterface("e"), b.a, maskC); err != nil {
				t.Error(err)
				return
			}
		}
		gw.SetForwarding(true)
		host1.AddRoute(Addr{135, 104, 52, 0}, maskC, gwA)
		host2.AddRoute(Addr{135, 104, 51, 0}, maskC, gwB)

		mb := recvBox(host2, ProtoUDP)
		if err := send(host1, ProtoUDP, h2, []byte("via gateway")); err != nil {
			t.Error(err)
			return
		}
		if !expect(t, host2, mb, "via gateway") {
			return
		}
		if gw.Forwarded.Load() == 0 {
			t.Error("gateway forwarded counter is zero")
		}
		// And the reverse path.
		mb1 := recvBox(host1, ProtoUDP)
		if err := send(host2, ProtoUDP, h1, []byte("reply")); err != nil {
			t.Error(err)
			return
		}
		expect(t, host1, mb1, "reply")
	})
}

func TestDefaultRoute(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		segA := ether.NewSegment(ether.Profile{Clock: v})
		defer segA.Close()
		mask := Addr{255, 255, 255, 0}
		h := NewStack(v)
		gw := NewStack(v)
		defer h.Close()
		defer gw.Close()
		ha := Addr{192, 168, 1, 2}
		gwa := Addr{192, 168, 1, 1}
		h.Bind(segA.NewInterface("e"), ha, mask)
		gw.Bind(segA.NewInterface("e"), gwa, mask)
		h.AddDefaultRoute(gwa)
		gw.SetForwarding(true)
		// The gateway has no route onward, but the packet must at
		// least reach it, through the ARP exchange for the gateway,
		// and die there for want of a route.
		if err := send(h, ProtoUDP, Addr{8, 8, 8, 8}, []byte("out")); err != nil {
			t.Errorf("default route send: %v", err)
			return
		}
		v.Sleep(20 * time.Millisecond)
		if n := gw.NoRoute.Load(); n != 1 {
			t.Errorf("gateway no-route count %d, want 1", n)
		}
	})
}

func TestLocalAddrForAndMTU(t *testing.T) {
	onTwoHosts(t, func(_ *vclock.Virtual, s1, _ *Stack, a1, a2 Addr) {
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
	})
}

func TestStatsText(t *testing.T) {
	onTwoHosts(t, func(_ *vclock.Virtual, s1, _ *Stack, _, a2 Addr) {
		recvBox(s1, ProtoUDP)
		send(s1, ProtoUDP, a2, []byte("x"))
		if s := s1.Stats(); s == "" {
			t.Error("empty stats")
		}
		if s1.OutPackets.Load() != 1 {
			t.Errorf("out packets %d", s1.OutPackets.Load())
		}
	})
}
