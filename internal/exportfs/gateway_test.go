package exportfs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// servedConn attaches a fresh pipe transport to the shared gateway
// server and returns the client end.
func servedConn(t *testing.T, srv *Server) ninep.MsgConn {
	t.Helper()
	a, b := ninep.NewPipe()
	go srv.ServeConn(b)
	t.Cleanup(func() { a.Close() })
	return a
}

// raw is a hand-cranked 9P client: it lets a test pick fids and tags
// exactly, to prove two tenants' numbering spaces never touch.
type raw struct {
	t    *testing.T
	conn ninep.MsgConn
}

func (r *raw) rpc(f *ninep.Fcall) *ninep.Fcall {
	r.t.Helper()
	msg, err := ninep.MarshalFcall(f)
	if err != nil {
		r.t.Fatalf("marshal %v: %v", f, err)
	}
	if err := r.conn.WriteMsg(msg); err != nil {
		r.t.Fatalf("write %v: %v", f, err)
	}
	m, err := r.conn.ReadMsg()
	if err != nil {
		r.t.Fatalf("read reply to %v: %v", f, err)
	}
	rf, err := ninep.UnmarshalFcall(m)
	if err != nil {
		r.t.Fatalf("unmarshal reply to %v: %v", f, err)
	}
	if rf.Type == ninep.Rerror {
		r.t.Fatalf("%v -> Rerror %q", f, rf.Ename)
	}
	if rf.Type != f.Type+1 || rf.Tag != f.Tag {
		r.t.Fatalf("%v -> %v", f, rf)
	}
	return rf
}

func gatewayServer(t *testing.T, files map[string]string) *Server {
	t.Helper()
	rfs := ramfs.New("gw")
	for name, contents := range files {
		if err := rfs.WriteFile(name, []byte(contents), 0664); err != nil {
			t.Fatal(err)
		}
	}
	return NewServer(ns.New("gw", rfs.Root()), Config{Clock: vclock.Real})
}

func TestCollidingFidsAndTagsAreIsolated(t *testing.T) {
	srv := gatewayServer(t, map[string]string{"a": "tenant a's file", "b": "tenant b's file"})

	// Both tenants use fid 7 and tag 3 for everything. If the server
	// shared either numbering space across connections, one tenant's
	// walk or open would clobber the other's.
	ca := &raw{t, servedConn(t, srv)}
	cb := &raw{t, servedConn(t, srv)}
	for _, c := range []struct {
		cl   *raw
		name string
		want string
	}{
		{ca, "a", "tenant a's file"},
		{cb, "b", "tenant b's file"},
	} {
		c.cl.rpc(&ninep.Fcall{Type: ninep.Tattach, Tag: 3, Fid: 7, Uname: "raw"})
		c.cl.rpc(&ninep.Fcall{Type: ninep.Twalk, Tag: 3, Fid: 7, Name: c.name})
		c.cl.rpc(&ninep.Fcall{Type: ninep.Topen, Tag: 3, Fid: 7, Mode: vfs.OREAD})
	}
	// Interleave the reads so both fids are live at once.
	ra := ca.rpc(&ninep.Fcall{Type: ninep.Tread, Tag: 3, Fid: 7, Count: 100})
	rb := cb.rpc(&ninep.Fcall{Type: ninep.Tread, Tag: 3, Fid: 7, Count: 100})
	if string(ra.Data) != "tenant a's file" {
		t.Errorf("tenant a read %q", ra.Data)
	}
	if string(rb.Data) != "tenant b's file" {
		t.Errorf("tenant b read %q", rb.Data)
	}
}

func TestTenantDeathClunksOnlyItsFids(t *testing.T) {
	srv := gatewayServer(t, map[string]string{"f": "shared file"})

	connA := servedConn(t, srv)
	ca := &raw{t, connA}
	cb := &raw{t, servedConn(t, srv)}
	for _, c := range []*raw{ca, cb} {
		c.rpc(&ninep.Fcall{Type: ninep.Tattach, Tag: 1, Fid: 1, Uname: "raw"})
		c.rpc(&ninep.Fcall{Type: ninep.Twalk, Tag: 1, Fid: 1, Name: "f"})
		c.rpc(&ninep.Fcall{Type: ninep.Topen, Tag: 1, Fid: 1, Mode: vfs.OREAD})
	}
	if n := len(srv.Ninep().ConnStats()); n != 2 {
		t.Fatalf("conns open = %d, want 2", n)
	}

	// Tenant A's transport dies mid-session.
	connA.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Ninep().ConnStats()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead connection never torn down")
		}
		time.Sleep(time.Millisecond)
	}

	// Tenant B's open fid — same number as A's — still serves.
	r := cb.rpc(&ninep.Fcall{Type: ninep.Tread, Tag: 1, Fid: 1, Count: 100})
	if string(r.Data) != "shared file" {
		t.Errorf("survivor read %q after neighbor death", r.Data)
	}
}

func TestCacheServesSecondTenantWithoutBacking(t *testing.T) {
	srv := gatewayServer(t, map[string]string{"lib/shared": strings.Repeat("x", 5000)})

	read := func(mountpoint string) {
		local := ns.New("me", ramfs.New("me").Root())
		cl, err := ImportConfig(local, servedConn(t, srv), "", mountpoint, ns.MREPL, mnt.FileConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		b, err := local.ReadFile(mountpoint + "/lib/shared")
		if err != nil || len(b) != 5000 {
			t.Fatalf("read %d bytes, %v", len(b), err)
		}
	}

	read("/n/gw")
	misses := srv.Cache().Misses.Load()
	if misses == 0 {
		t.Fatalf("first tenant's read did not fill the cache")
	}
	hitsBefore := srv.Cache().Hits.Load()

	// The second tenant's read is served entirely from the cache: the
	// miss counter — the only path that touches the backing tree —
	// must not move, and every fragment it touched must be a hit.
	read("/n/gw2")
	if got := srv.Cache().Misses.Load(); got != misses {
		t.Errorf("second tenant touched the backing tree: misses %d -> %d", misses, got)
	}
	if got := srv.Cache().Hits.Load(); got <= hitsBefore {
		t.Errorf("second tenant's reads were not cache hits: %d -> %d", hitsBefore, got)
	}
}

func TestStatsCarryPerConnBill(t *testing.T) {
	srv := gatewayServer(t, map[string]string{"f": "stats"})
	for i := 0; i < 2; i++ {
		local := ns.New("me", ramfs.New("me").Root())
		cl, err := ImportConfig(local, servedConn(t, srv), "", "/r", ns.MREPL, mnt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := local.ReadFile("/r/f"); err != nil {
			t.Fatal(err)
		}
	}
	text := srv.Stats()
	// Scalar lines parse; the per-connection bill lines carry a space
	// in the name and are skipped by design.
	m := obs.ParseStats(text)
	if m["conns"] < 2 || m["rpcs"] == 0 {
		t.Errorf("scalar stats missing: %v in\n%s", m, text)
	}
	if _, ok := m["cache-hits"]; !ok {
		t.Errorf("cache counters missing from gateway stats:\n%s", text)
	}
	if strings.Count(text, "conn ") < 2 {
		t.Errorf("per-connection bill missing:\n%s", text)
	}
	for name := range m {
		if strings.HasPrefix(name, "conn ") {
			t.Errorf("bill line leaked into parsed scalars: %q", name)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	rfs := ramfs.New("gw")
	rfs.WriteFile("f", []byte("plain"), 0664)
	srv := NewServer(ns.New("gw", rfs.Root()), Config{Clock: vclock.Real, CacheBytes: -1})
	if srv.Cache() != nil {
		t.Fatalf("negative CacheBytes should disable the cache")
	}
	local := ns.New("me", ramfs.New("me").Root())
	cl, err := ImportConfig(local, servedConn(t, srv), "", "/r", ns.MREPL, mnt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if b, err := local.ReadFile("/r/f"); err != nil || string(b) != "plain" {
		t.Fatalf("uncached read %q, %v", b, err)
	}
}
