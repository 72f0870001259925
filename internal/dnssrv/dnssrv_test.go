package dnssrv

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/udp"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

func TestMsgRoundTrip(t *testing.T) {
	m := &Msg{
		ID: 42, Response: true, Auth: true, Rcode: 0,
		QName: "helix.research.bell-labs.com", QType: TypeA,
		Answer: []RR{{Name: "helix.research.bell-labs.com", Type: TypeA, TTL: 3600, Data: "135.104.9.31"}},
		NS:     []RR{{Name: "research.bell-labs.com", Type: TypeNS, TTL: 3600, Data: "bootes.research.bell-labs.com"}},
		Extra:  []RR{{Name: "bootes.research.bell-labs.com", Type: TypeA, TTL: 3600, Data: "135.104.9.2"}},
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, g) {
		t.Errorf("round trip:\n got %+v\nwant %+v", g, m)
	}
}

func TestMsgQuick(t *testing.T) {
	label := func(s string) string {
		out := []byte{}
		for _, c := range []byte(s) {
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
				out = append(out, c)
			}
			if len(out) == 20 {
				break
			}
		}
		if len(out) == 0 {
			return "x"
		}
		return string(out)
	}
	f := func(id uint16, a, b, txt string, ttl uint32) bool {
		name := label(a) + "." + label(b)
		m := &Msg{ID: id, Response: true, QName: name, QType: TypeTXT,
			Answer: []RR{{Name: name, Type: TypeTXT, TTL: ttl, Data: txt}}}
		raw, err := m.Marshal()
		if err != nil {
			return false
		}
		g, err := Unmarshal(raw)
		return err == nil && reflect.DeepEqual(g, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, p := range [][]byte{nil, {1, 2, 3}, make([]byte, 12)} {
		if _, err := Unmarshal(p); err == nil && len(p) < 12 {
			t.Errorf("garbage %v accepted", p)
		}
	}
	// Truncated valid message.
	m := &Msg{ID: 1, QName: "a.b", QType: TypeA}
	b, _ := m.Marshal()
	if _, err := Unmarshal(b[:len(b)-3]); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestZoneLookup(t *testing.T) {
	z := NewZone("example.com")
	z.AddA("www.example.com", "1.2.3.4")
	z.Add(RR{Name: "alias.example.com", Type: TypeCNAME, Data: "www.example.com"})
	z.Delegate("sub.example.com", "ns.sub.example.com", "5.6.7.8")

	ans, _, _, nx := z.lookup("www.example.com", TypeA)
	if nx || len(ans) != 1 || ans[0].Data != "1.2.3.4" {
		t.Errorf("direct lookup %v nx=%v", ans, nx)
	}
	// CNAME chase within the zone yields both records.
	ans, _, _, _ = z.lookup("alias.example.com", TypeA)
	if len(ans) != 2 || ans[0].Type != TypeCNAME || ans[1].Data != "1.2.3.4" {
		t.Errorf("cname chase %v", ans)
	}
	// Delegation returns NS + glue.
	ans, auth, extra, nx := z.lookup("deep.sub.example.com", TypeA)
	if nx || len(ans) != 0 || len(auth) != 1 || len(extra) != 1 {
		t.Errorf("delegation ans=%v auth=%v extra=%v nx=%v", ans, auth, extra, nx)
	}
	if auth[0].Data != "ns.sub.example.com" || extra[0].Data != "5.6.7.8" {
		t.Errorf("delegation records %v %v", auth, extra)
	}
	// NXDOMAIN.
	if _, _, _, nx := z.lookup("nowhere.example.com", TypeA); !nx {
		t.Error("missing name did not NX")
	}
}

// onResolver runs body on a virtual clock with a root server, a zone
// server, and a client resolver on one ether segment.
func onResolver(t *testing.T, body func(r *Resolver)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment("e0", ether.Profile{Clock: v})
		defer seg.Close()
		mask := ip.Addr{255, 255, 255, 0}
		var protos []*udp.Proto
		for _, a := range []ip.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}, {10, 0, 0, 3}} {
			st := ip.NewStack(v)
			defer st.Close()
			if _, err := st.Bind(seg.NewInterface("e"), a, mask); err != nil {
				t.Error(err)
				return
			}
			protos = append(protos, udp.New(st))
		}

		root := NewZone("")
		root.Delegate("example.com", "ns.example.com", "10.0.0.2")
		zone := NewZone("example.com")
		zone.AddA("www.example.com", "93.184.216.34")
		zone.Add(RR{Name: "alias.example.com", Type: TypeCNAME, Data: "www.example.com"})
		for i, z := range []*Zone{root, zone} {
			srv, err := Serve(protos[i], z)
			if err != nil {
				t.Error(err)
				return
			}
			defer srv.Close()
		}
		body(NewResolver(protos[2], []ip.Addr{{10, 0, 0, 1}}))
	})
}

func TestRecursiveResolution(t *testing.T) {
	onResolver(t, func(r *Resolver) {
		addrs, err := r.LookupA("www.example.com")
		if err != nil {
			t.Error(err)
			return
		}
		if len(addrs) != 1 || addrs[0].String() != "93.184.216.34" {
			t.Errorf("resolved %v", addrs)
		}
		// Two wire queries: root then zone server.
		if r.Queries != 2 {
			t.Errorf("wire queries %d, want 2", r.Queries)
		}
	})
}

func TestResolverCaching(t *testing.T) {
	onResolver(t, func(r *Resolver) {
		if _, err := r.LookupA("www.example.com"); err != nil {
			t.Error(err)
			return
		}
		q := r.Queries
		if _, err := r.LookupA("www.example.com"); err != nil {
			t.Error(err)
			return
		}
		if r.Queries != q {
			t.Error("cached lookup hit the wire")
		}
	})
}

func TestCNAMEAcrossLookup(t *testing.T) {
	onResolver(t, func(r *Resolver) {
		addrs, err := r.LookupA("alias.example.com")
		if err != nil || len(addrs) != 1 || addrs[0].String() != "93.184.216.34" {
			t.Errorf("cname resolution %v, %v", addrs, err)
		}
	})
}

func TestNXDomain(t *testing.T) {
	onResolver(t, func(r *Resolver) {
		if _, err := r.LookupA("missing.example.com"); err != ErrNX {
			t.Errorf("nxdomain error = %v", err)
		}
	})
}

func TestTimeoutWhenNoServers(t *testing.T) {
	// The retry ladder against dead roots burns simulated time on the
	// virtual clock, so the test costs microseconds of wall time and
	// the 3s budget is exact rather than machine-load-dependent.
	// (t.Error, not t.Fatal, inside Run: Goexit from a machine
	// goroutine would hang the scheduler.)
	v := vclock.NewVirtual()
	v.Run(func() {
		seg := ether.NewSegment("e0", ether.Profile{Clock: v})
		defer seg.Close()
		st := ip.NewStack(v)
		defer st.Close()
		st.Bind(seg.NewInterface("e"), ip.Addr{10, 0, 0, 9}, ip.Addr{255, 255, 255, 0})
		r := NewResolver(udp.New(st), []ip.Addr{{10, 0, 0, 200}}) // nobody there
		start := v.Now()
		if _, err := r.LookupA("www.example.com"); err == nil {
			t.Error("lookup with dead roots succeeded")
		}
		if v.Since(start) > 3*time.Second {
			t.Error("timeout took too long")
		}
	})
}

func TestDevNode(t *testing.T) {
	onResolver(t, func(r *Resolver) {
		n := Node(r, "glenda")
		h, err := n.Open(vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Close()
		if _, err := h.Write([]byte("www.example.com ip"), 0); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 256)
		rn, err := h.Read(buf, 0)
		if err != nil || string(buf[:rn]) != "www.example.com ip 93.184.216.34\n" {
			t.Errorf("dns dev line %q, %v", buf[:rn], err)
		}
		// Exhausted.
		if rn, _ := h.Read(buf, 0); rn != 0 {
			t.Error("extra lines after answer")
		}
		// Bad request types.
		if _, err := h.Write([]byte("www.example.com bogus"), 0); err == nil {
			t.Error("bogus type accepted")
		}
		// Failed lookups error the write.
		if _, err := h.Write([]byte("missing.example.com ip"), 0); err == nil {
			t.Error("nx write succeeded")
		}
	})
}

// TestDevNodeShortReads: a buffer shorter than the record gets the
// prefix that fits and the next read resumes mid-line; reading
// /net/dns 16 bytes at a time reassembles the whole record.
func TestDevNodeShortReads(t *testing.T) {
	onResolver(t, func(r *Resolver) {
		h, err := Node(r, "glenda").Open(vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Close()
		if _, err := h.Write([]byte("www.example.com ip"), 0); err != nil {
			t.Error(err)
			return
		}
		var got []byte
		buf := make([]byte, 16)
		for {
			n, err := h.Read(buf, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if want := "www.example.com ip 93.184.216.34\n"; string(got) != want {
			t.Errorf("16-byte reads of /net/dns reassembled %q, want %q", got, want)
		}
	})
}

func TestParseTypeAndNames(t *testing.T) {
	for s, want := range map[string]uint16{"ip": TypeA, "A": TypeA, "ns": TypeNS, "cname": TypeCNAME, "ptr": TypePTR, "txt": TypeTXT} {
		got, ok := ParseType(s)
		if !ok || got != want {
			t.Errorf("ParseType(%q) = %d,%v", s, got, ok)
		}
	}
	if _, ok := ParseType("mx"); ok {
		t.Error("unsupported type parsed")
	}
	if TypeName(TypeA) != "ip" || TypeName(999) == "" {
		t.Error("TypeName wrong")
	}
	if Canonical("WWW.Example.COM.") != "www.example.com" {
		t.Error("Canonical wrong")
	}
}
