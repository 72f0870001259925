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

// raw is a hand-cranked 9P client: it lets a test pick fids and tags
// exactly, to prove two tenants' numbering spaces never touch.
type raw struct {
	t    *testing.T
	conn ninep.MsgConn
}

// rpc sends f and returns the reply; on any failure the test fails
// and the reply is empty.
func (r *raw) rpc(f *ninep.Fcall) *ninep.Fcall {
	r.t.Helper()
	msg, err := ninep.MarshalFcall(f)
	if err != nil {
		r.t.Errorf("marshal %v: %v", f, err)
		return &ninep.Fcall{}
	}
	if err := r.conn.WriteMsg(msg); err != nil {
		r.t.Errorf("write %v: %v", f, err)
		return &ninep.Fcall{}
	}
	m, err := r.conn.ReadMsg()
	if err != nil {
		r.t.Errorf("read reply to %v: %v", f, err)
		return &ninep.Fcall{}
	}
	rf, err := ninep.UnmarshalFcall(m)
	if err != nil {
		r.t.Errorf("unmarshal reply to %v: %v", f, err)
		return &ninep.Fcall{}
	}
	if rf.Type == ninep.Rerror {
		r.t.Errorf("%v -> Rerror %q", f, rf.Ename)
		return &ninep.Fcall{}
	}
	if rf.Type != f.Type+1 || rf.Tag != f.Tag {
		r.t.Errorf("%v -> %v", f, rf)
		return &ninep.Fcall{}
	}
	return rf
}

// onGateway runs body on a fresh virtual clock with a gateway server
// exporting files, configured by cfg on that clock. serve attaches a
// fresh pipe transport to the server and returns the client end; every
// such end is closed when body returns.
func onGateway(t *testing.T, files map[string]string, cfg Config, body func(ck vclock.Clock, srv *Server, serve func() ninep.MsgConn)) {
	t.Helper()
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("gw", ck)
		for name, contents := range files {
			if err := rfs.WriteFile(name, []byte(contents), 0664); err != nil {
				t.Error(err)
				return
			}
		}
		cfg.Clock = ck
		srv := NewServer(ns.New("gw", rfs.Root()), cfg)
		defer srv.Close()
		var conns []ninep.MsgConn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		body(ck, srv, func() ninep.MsgConn {
			a, b := ninep.NewPipe(ck)
			ck.Go(func() { srv.ServeConn(b) })
			conns = append(conns, a)
			return a
		})
	})
}

func TestCollidingFidsAndTagsAreIsolated(t *testing.T) {
	onGateway(t, map[string]string{"a": "tenant a's file", "b": "tenant b's file"}, Config{}, func(ck vclock.Clock, srv *Server, serve func() ninep.MsgConn) {

		// Both tenants use fid 7 and tag 3 for everything. If the server
		// shared either numbering space across connections, one tenant's
		// walk or open would clobber the other's.
		ca := &raw{t, serve()}
		cb := &raw{t, serve()}
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
	})
}

func TestTenantDeathClunksOnlyItsFids(t *testing.T) {
	onGateway(t, map[string]string{"f": "shared file"}, Config{}, func(ck vclock.Clock, srv *Server, serve func() ninep.MsgConn) {

		connA := serve()
		ca := &raw{t, connA}
		cb := &raw{t, serve()}
		for _, c := range []*raw{ca, cb} {
			c.rpc(&ninep.Fcall{Type: ninep.Tattach, Tag: 1, Fid: 1, Uname: "raw"})
			c.rpc(&ninep.Fcall{Type: ninep.Twalk, Tag: 1, Fid: 1, Name: "f"})
			c.rpc(&ninep.Fcall{Type: ninep.Topen, Tag: 1, Fid: 1, Mode: vfs.OREAD})
		}
		if n := len(srv.Ninep().ConnStats()); n != 2 {
			t.Errorf("conns open = %d, want 2", n)
			return
		}

		// Tenant A's transport dies mid-session; the server tears the
		// connection down once the clock has run out what was due.
		connA.Close()
		ck.Sleep(time.Millisecond)
		if n := len(srv.Ninep().ConnStats()); n != 1 {
			t.Errorf("conns open = %d after a tenant died, want 1", n)
			return
		}

		// Tenant B's open fid — same number as A's — still serves.
		r := cb.rpc(&ninep.Fcall{Type: ninep.Tread, Tag: 1, Fid: 1, Count: 100})
		if string(r.Data) != "shared file" {
			t.Errorf("survivor read %q after neighbor death", r.Data)
		}
	})
}

func TestCacheServesSecondTenantWithoutBacking(t *testing.T) {
	onGateway(t, map[string]string{"lib/shared": strings.Repeat("x", 5000)}, Config{}, func(ck vclock.Clock, srv *Server, serve func() ninep.MsgConn) {

		read := func(mountpoint string) {
			local := ns.New("me", ramfs.NewClock("me", ck).Root())
			cfg := mnt.FileConfig()
			cfg.Client.Clock = ck
			cl, err := ImportConfig(local, serve(), "", mountpoint, ns.MREPL, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			b, err := local.ReadFile(mountpoint + "/lib/shared")
			if err != nil || len(b) != 5000 {
				t.Errorf("read %d bytes, %v", len(b), err)
			}
		}

		read("/n/gw")
		misses := srv.Cache().Misses.Load()
		if misses == 0 {
			t.Errorf("first tenant's read did not fill the cache")
			return
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
	})
}

func TestStatsCarryPerConnBill(t *testing.T) {
	onGateway(t, map[string]string{"f": "stats"}, Config{}, func(ck vclock.Clock, srv *Server, serve func() ninep.MsgConn) {
		for i := 0; i < 2; i++ {
			local := ns.New("me", ramfs.NewClock("me", ck).Root())
			cl, err := ImportConfig(local, serve(), "", "/r", ns.MREPL, mountConfig(ck))
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			if _, err := local.ReadFile("/r/f"); err != nil {
				t.Error(err)
				return
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
	})
}
