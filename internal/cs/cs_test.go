package cs

import (
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/ndb"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

const testNdb = `ipnet=lab ip=135.104.0.0 ipmask=255.255.255.0
	auth=p9auth
sys=helix ip=135.104.9.31 dk=nj/astro/helix dom=helix.research.bell-labs.com
sys=p9auth ip=135.104.9.34 dk=nj/astro/p9auth
sys=self ip=135.104.9.50
sys=dkonly dk=nj/astro/dkonly
tcp=echo port=7
tcp=login port=513
il=9fs port=17008
il=rexauth port=17021
`

func newServer(t *testing.T, probe func(string) bool) *Server {
	t.Helper()
	f, err := ndb.Parse("local", []byte(testNdb))
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		SysName: "self",
		DB:      ndb.New(f),
		Networks: []Network{
			{Name: "il", Clone: "/net/il/clone", Kind: KindIP},
			{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP},
			{Name: "dk", Clone: "/net/dk/clone", Kind: KindDatakit},
		},
		Probe: probe,
	})
}

func TestNetWildcardOrdersByPreference(t *testing.T) {
	s := newServer(t, nil)
	lines, err := tr(s, "net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines %v", lines)
	}
	if lines[0] != "/net/il/clone 135.104.9.31!17008" {
		t.Errorf("first line %q", lines[0])
	}
	if lines[1] != "/net/dk/clone nj/astro/helix!9fs" {
		t.Errorf("second line %q", lines[1])
	}
}

func TestSpecificNetwork(t *testing.T) {
	s := newServer(t, nil)
	lines, err := tr(s, "tcp!helix!echo")
	if err != nil || len(lines) != 1 || lines[0] != "/net/tcp/clone 135.104.9.31!7" {
		t.Errorf("tcp translate: %v, %v", lines, err)
	}
	if _, err := tr(s, "fddi!helix!echo"); !vfs.SameError(err, vfs.ErrNoNet) {
		t.Errorf("unknown network error = %v", err)
	}
}

func TestLiteralAddressesPassThrough(t *testing.T) {
	s := newServer(t, nil)
	lines, err := tr(s, "tcp!135.104.117.5!513")
	if err != nil || lines[0] != "/net/tcp/clone 135.104.117.5!513" {
		t.Errorf("literal IP: %v, %v", lines, err)
	}
	// Literal Datakit path.
	lines, err = tr(s, "dk!nj/astro/unlisted!login")
	if err != nil || lines[0] != "/net/dk/clone nj/astro/unlisted!login" {
		t.Errorf("literal dk: %v, %v", lines, err)
	}
}

func TestMetaNameDollarAttr(t *testing.T) {
	s := newServer(t, nil)
	lines, err := tr(s, "net!$auth!rexauth")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "/net/il/clone 135.104.9.34!17021") {
		t.Errorf("$auth lines: %v", lines)
	}
	if !strings.Contains(joined, "/net/dk/clone nj/astro/p9auth!rexauth") {
		t.Errorf("$auth dk line missing: %v", lines)
	}
	if _, err := tr(s, "net!$nosuch!echo"); err == nil {
		t.Error("unknown attribute resolved")
	}
}

func TestAnnounceForm(t *testing.T) {
	s := newServer(t, nil)
	lines, err := tr(s, "tcp!*!echo")
	if err != nil || len(lines) != 1 || lines[0] != "/net/tcp/clone *!7" {
		t.Errorf("announce translate: %v, %v", lines, err)
	}
	lines, err = tr(s, "dk!*!9fs")
	if err != nil || lines[0] != "/net/dk/clone *!9fs" {
		t.Errorf("dk announce: %v, %v", lines, err)
	}
}

func TestHostsNotOnNetworkAreSkipped(t *testing.T) {
	s := newServer(t, nil)
	// dkonly has no ip=: only the dk line appears.
	lines, err := tr(s, "net!dkonly!9fs")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "/net/il/") || strings.HasPrefix(l, "/net/tcp/") {
			t.Errorf("dk-only host offered on IP: %v", lines)
		}
	}
	if _, err := tr(s, "tcp!dkonly!echo"); err == nil {
		t.Error("dk-only host translated on tcp")
	}
}

func TestUnknownServiceAndHost(t *testing.T) {
	s := newServer(t, nil)
	if _, err := tr(s, "tcp!helix!frobnicate"); err == nil {
		t.Error("unknown service translated")
	}
	if _, err := tr(s, "tcp!ghost!echo"); err == nil {
		t.Error("unknown host translated")
	}
	if _, err := tr(s, "justonepart"); err == nil {
		t.Error("malformed query accepted")
	}
	if _, err := tr(s, "tcp!!echo"); err == nil {
		t.Error("empty host accepted")
	}
}

func TestProbeFiltersNetworks(t *testing.T) {
	// Only dk "exists": IP networks disappear from answers.
	s := newServer(t, func(clone string) bool {
		return strings.HasPrefix(clone, "/net/dk/")
	})
	lines, err := tr(s, "net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != "/net/dk/clone nj/astro/helix!9fs" {
		t.Errorf("probed lines %v", lines)
	}
	if _, err := tr(s, "tcp!helix!echo"); !vfs.SameError(err, vfs.ErrNoNet) {
		t.Errorf("probed-out network error = %v", err)
	}
}

func TestDNSFallbackForDomains(t *testing.T) {
	f, _ := ndb.Parse("local", []byte(testNdb))
	resolved := ""
	s := New(Config{
		SysName:  "self",
		DB:       ndb.New(f),
		Networks: []Network{{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP}},
		Resolve: func(domain string) ([]ip.Addr, error) {
			resolved = domain
			return []ip.Addr{{1, 2, 3, 4}}, nil
		},
	})
	// A name in the database resolves without DNS.
	if _, err := tr(s, "tcp!helix.research.bell-labs.com!echo"); err != nil {
		t.Fatal(err)
	}
	if resolved != "" {
		t.Error("database name went to DNS")
	}
	// A name only DNS knows goes through Resolve.
	lines, err := tr(s, "tcp!ai.mit.edu!echo")
	if err != nil || lines[0] != "/net/tcp/clone 1.2.3.4!7" {
		t.Errorf("dns-resolved translate: %v, %v", lines, err)
	}
	if resolved != "ai.mit.edu" {
		t.Errorf("resolver saw %q", resolved)
	}
}

func TestNetCsFileInterface(t *testing.T) {
	s := newServer(t, nil)
	nsp := ns.New("self", ramfs.New("self").Root())
	nsp.MountNode(s.Node("self"), "/net/cs", ns.MREPL)
	fd, err := nsp.Open("/net/cs/cs", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if _, err := fd.WriteString("net!helix!9fs"); err != nil {
		t.Fatal(err)
	}
	// One line per read.
	buf := make([]byte, 256)
	n, _ := fd.ReadAt(buf, 0)
	if strings.TrimSpace(string(buf[:n])) != "/net/il/clone 135.104.9.31!17008" {
		t.Errorf("first cs line %q", buf[:n])
	}
	n, _ = fd.ReadAt(buf, 0)
	if strings.TrimSpace(string(buf[:n])) != "/net/dk/clone nj/astro/helix!9fs" {
		t.Errorf("second cs line %q", buf[:n])
	}
	if n, _ := fd.ReadAt(buf, 0); n != 0 {
		t.Error("cs kept answering after the last line")
	}
	// Errors surface on the write.
	if _, err := fd.WriteString("tcp!ghost!echo"); err == nil {
		t.Error("bad query write succeeded")
	}
}

func TestMultiHomedHostGetsAllAddresses(t *testing.T) {
	multi := testNdb + "sys=gateway ip=135.104.9.60\n\tip=18.26.0.1\n"
	f, _ := ndb.Parse("local", []byte(multi))
	s := New(Config{
		SysName:  "self",
		DB:       ndb.New(f),
		Networks: []Network{{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP}},
	})
	lines, err := tr(s, "tcp!gateway!login")
	if err != nil || len(lines) != 2 {
		t.Fatalf("multihomed lines %v, %v", lines, err)
	}
	if lines[0] != "/net/tcp/clone 135.104.9.60!513" || lines[1] != "/net/tcp/clone 18.26.0.1!513" {
		t.Errorf("multihomed addresses %v", lines)
	}
}

// tr flattens a translation for the []string-shaped assertions above.
func tr(s *Server, q string) ([]string, error) {
	a, err := s.Translate(q)
	return a.lines, err
}
