package ndb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ip"
)

// paperLocal is the database text shown in §4.1 of the paper,
// verbatim in structure.
const paperLocal = `sys = helix
	dom=helix.research.bell-labs.com
	bootf=/mips/9power
	ip=135.104.9.31 ether=0800690222f0
	dk=nj/astro/helix
	proto=il flavor=9cpu

ipnet=mh-astro-net ip=135.104.0.0 ipmask=255.255.255.0
	fs=bootes.research.bell-labs.com
	auth=1127auth
ipnet=unix-room ip=135.104.117.0
	ipgw=135.104.117.1
ipnet=third-floor ip=135.104.51.0
	ipgw=135.104.51.1
ipnet=fourth-floor ip=135.104.52.0
	ipgw=135.104.52.1

tcp=echo	port=7
tcp=discard	port=9
tcp=systat	port=11
tcp=daytime	port=13
tcp=login	port=513
tcp=9fs		port=564
il=9fs		port=17008
il=rexauth	port=17021
udp=dns		port=53
`

func paperDB(t *testing.T) *DB {
	t.Helper()
	f, err := Parse("local", []byte(paperLocal))
	if err != nil {
		t.Fatal(err)
	}
	return New(f)
}

func TestParsePaperEntries(t *testing.T) {
	db := paperDB(t)
	e, ok := db.QueryOne("sys", "helix")
	if !ok {
		t.Fatal("helix entry missing")
	}
	checks := map[string]string{
		"dom":   "helix.research.bell-labs.com",
		"bootf": "/mips/9power",
		"ip":    "135.104.9.31",
		"ether": "0800690222f0",
		"dk":    "nj/astro/helix",
		"proto": "il",
	}
	for attr, want := range checks {
		if v, _ := e.Get(attr); v != want {
			t.Errorf("%s = %q, want %q", attr, v, want)
		}
	}
	// "sys = helix" with spaces around = parses as attr sys val helix.
	if v, _ := e.Get("sys"); v != "helix" {
		t.Errorf("sys = %q", v)
	}
}

func TestMultilineEntryBoundaries(t *testing.T) {
	db := paperDB(t)
	// The four ipnet entries are distinct.
	nets := 0
	for _, f := range db.Files {
		for _, e := range f.Entries {
			if _, ok := e.Get("ipnet"); ok {
				nets++
			}
		}
	}
	if nets != 4 {
		t.Errorf("%d ipnet entries, want 4", nets)
	}
	// The gateway of third-floor belongs to third-floor only.
	e, ok := db.QueryOne("ipnet", "third-floor")
	if !ok {
		t.Fatal("third-floor missing")
	}
	if gw, _ := e.Get("ipgw"); gw != "135.104.51.1" {
		t.Errorf("third-floor gw %q", gw)
	}
}

func TestServicePorts(t *testing.T) {
	db := paperDB(t)
	cases := []struct{ proto, svc, port string }{
		{"tcp", "echo", "7"},
		{"tcp", "discard", "9"},
		{"tcp", "login", "513"},
		{"tcp", "9fs", "564"},
		{"il", "9fs", "17008"},
		{"il", "rexauth", "17021"},
		{"tcp", "12345", "12345"}, // numeric passes through
	}
	for _, c := range cases {
		got, ok := db.ServicePort(c.proto, c.svc)
		if !ok || got != c.port {
			t.Errorf("ServicePort(%s,%s) = %q,%v want %q", c.proto, c.svc, got, ok, c.port)
		}
	}
	if _, ok := db.ServicePort("tcp", "nosuch"); ok {
		t.Error("unknown service resolved")
	}
	if _, ok := db.ServicePort("tcp", ""); ok {
		t.Error("empty service resolved")
	}
}

func TestIPInfoWalksSysSubnetNet(t *testing.T) {
	db := paperDB(t)
	// helix (135.104.9.31) is in no declared subnet; auth comes from
	// the class-B network entry.
	v, ok := db.IPInfo("helix", "auth")
	if !ok || v != "1127auth" {
		t.Errorf("auth for helix = %q,%v", v, ok)
	}
	// fs likewise.
	v, ok = db.IPInfo("helix", "fs")
	if !ok || v != "bootes.research.bell-labs.com" {
		t.Errorf("fs for helix = %q,%v", v, ok)
	}
	// An attribute on the system itself wins.
	v, ok = db.IPInfo("helix", "bootf")
	if !ok || v != "/mips/9power" {
		t.Errorf("bootf = %q,%v", v, ok)
	}
	// A host on the third floor picks up its subnet's gateway, not
	// another subnet's.
	f, _ := Parse("extra", []byte("sys=gnot ip=135.104.51.7\n"))
	db.Files = append(db.Files, f)
	v, ok = db.IPInfo("gnot", "ipgw")
	if !ok || v != "135.104.51.1" {
		t.Errorf("subnet gw for gnot = %q,%v", v, ok)
	}
	// And still inherits network-level attributes.
	v, ok = db.IPInfo("gnot", "auth")
	if !ok || v != "1127auth" {
		t.Errorf("auth for gnot = %q,%v", v, ok)
	}
	// Unknown attribute and unknown host fail cleanly.
	if _, ok := db.IPInfo("helix", "nosuch"); ok {
		t.Error("nonexistent attribute resolved")
	}
	if _, ok := db.IPInfo("nobody", "auth"); ok {
		t.Error("nonexistent host resolved")
	}
}

func TestNetsContainingOrder(t *testing.T) {
	db := paperDB(t)
	nets := db.NetsContaining(ip.Addr{135, 104, 117, 9})
	if len(nets) != 2 {
		t.Fatalf("%d nets, want subnet+network", len(nets))
	}
	if n, _ := nets[0].Entry.Get("ipnet"); n != "unix-room" {
		t.Errorf("most specific net %q, want unix-room", n)
	}
	if n, _ := nets[1].Entry.Get("ipnet"); n != "mh-astro-net" {
		t.Errorf("second net %q, want mh-astro-net", n)
	}
}

func TestFindSystemByAnyName(t *testing.T) {
	db := paperDB(t)
	for _, name := range []string{"helix", "helix.research.bell-labs.com", "135.104.9.31", "nj/astro/helix"} {
		if _, ok := db.FindSystem(name); !ok {
			t.Errorf("FindSystem(%q) failed", name)
		}
	}
	if _, ok := db.FindSystem("ghost"); ok {
		t.Error("FindSystem(ghost) succeeded")
	}
}

func TestHashedLookupAndStaleness(t *testing.T) {
	f, _ := Parse("local", []byte(paperLocal))
	db := New(f)
	db.HashAll("sys", "dom")
	db.QueryOne("sys", "helix")
	h1, s1 := db.Counters()
	if h1 != 1 || s1 != 0 {
		t.Fatalf("hashed lookup used counters h=%d s=%d", h1, s1)
	}
	// Unhashed attribute scans.
	db.QueryOne("ether", "0800690222f0")
	_, s2 := db.Counters()
	if s2 != 1 {
		t.Fatalf("unhashed lookup did not scan (s=%d)", s2)
	}
	// Replacing the file contents makes the hash stale: lookups
	// still work but scan.
	f.Replace(append(f.Entries, Entry{{Attr: "sys", Val: "musca"}, {Attr: "ip", Val: "135.104.9.6"}}))
	if _, ok := db.QueryOne("sys", "musca"); !ok {
		t.Fatal("stale-hash lookup missed new entry")
	}
	_, s3 := db.Counters()
	if s3 != 2 {
		t.Fatalf("stale hash did not fall back to scan (s=%d)", s3)
	}
	// Rebuilding the hash restores the fast path.
	f.BuildHash("sys")
	db.QueryOne("sys", "musca")
	h4, s4 := db.Counters()
	if h4 != 2 || s4 != 2 {
		t.Fatalf("rebuilt hash not used (h=%d s=%d)", h4, s4)
	}
}

func TestQuotedValuesAndComments(t *testing.T) {
	src := `# comment line
sys=test
	val="hello world"	other=plain
# another comment
sys=two
`
	f, err := Parse("x", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 2 {
		t.Fatalf("%d entries", len(f.Entries))
	}
	if v, _ := f.Entries[0].Get("val"); v != "hello world" {
		t.Errorf("quoted value %q", v)
	}
	if v, _ := f.Entries[0].Get("other"); v != "plain" {
		t.Errorf("plain value %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("x", []byte("\tindented=first\n")); err == nil {
		t.Error("leading continuation accepted")
	}
	if _, err := Parse("x", []byte("sys=a\n\tval=\"unterminated\n")); err == nil {
		t.Error("unterminated quote accepted")
	}
	if _, err := Parse("x", []byte("sys=a =bare\n")); err == nil {
		t.Error("empty attribute accepted")
	}
}

func TestBareAttributes(t *testing.T) {
	f, err := Parse("x", []byte("sys=a\n\ttrusted\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Entries[0].Get("trusted"); !ok || v != "" {
		t.Errorf("bare attribute = %q,%v", v, ok)
	}
}

func TestEntryString(t *testing.T) {
	f, _ := Parse("x", []byte("sys=a\n\tval=\"two words\" flag\n"))
	s := f.Entries[0].String()
	if !strings.Contains(s, "sys=a") || !strings.Contains(s, `val="two words"`) || !strings.Contains(s, "flag") {
		t.Errorf("Entry.String = %q", s)
	}
}

// TestEntryStringReparses: String writes what Parse reads. A quoted
// value is read raw, so String writes it between plain quotes: Go's %q
// quoting doubled a backslash and turned a tab into "\t", and a second
// parse kept both escapes. Blanks are one set, carriage return
// included, and a # starting a tuple ends the line, so neither a blank
// at the end of a value nor a commented-out tuple changes when each
// tuple moves to a line of its own.
func TestEntryStringReparses(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"sys=dos descr=\"C:\\dos box\"\n", "sys=dos\n\tdescr=\"C:\\dos box\""},
		{"sys=tab descr=\"a\tb\"\n", "sys=tab\n\tdescr=\"a\tb\""},
		{"sys=test\r\tip=1.2.3.4\r\n", "sys=test\n\tip=1.2.3.4"},
		{"sys=a ip=1.2.3.4 #ip=5.6.7.8\n", "sys=a\n\tip=1.2.3.4"},
	} {
		f, err := Parse("x", []byte(c.src))
		if err != nil || len(f.Entries) != 1 {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := f.Entries[0].String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
		again, err := Parse("again", []byte(c.want+"\n"))
		if err != nil || len(again.Entries) != 1 || again.Entries[0].String() != c.want {
			t.Errorf("%q does not parse back to itself: %v, %v", c.want, again, err)
		}
	}
}

func TestGetAllMultipleValues(t *testing.T) {
	f, _ := Parse("x", []byte("sys=multi\n\tip=1.2.3.4\n\tip=5.6.7.8\n"))
	ips := f.Entries[0].GetAll("ip")
	if len(ips) != 2 || ips[0] != "1.2.3.4" || ips[1] != "5.6.7.8" {
		t.Errorf("GetAll = %v", ips)
	}
}

func TestGeneratedGlobalParses(t *testing.T) {
	data := GenerateGlobal(2000, 1)
	f, err := Parse("global", data)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) < 2000 {
		t.Errorf("only %d entries", len(f.Entries))
	}
	db := New(f)
	db.HashAll("sys", "dom", "ip")
	if _, ok := db.QueryOne("sys", "host999"); !ok {
		t.Error("host999 missing from generated db")
	}
	if _, ok := db.QueryOne("dom", "host0.research.bell-labs.com"); !ok {
		t.Error("dom lookup failed")
	}
	lines := strings.Count(string(data), "\n")
	if lines < 4000 {
		t.Errorf("generated db only %d lines", lines)
	}
}

// Property: parsing the String() of parsed entries reproduces them.
func TestParseRoundTripQuick(t *testing.T) {
	clean := func(s string) string {
		var b strings.Builder
		for _, c := range s {
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
				b.WriteRune(c)
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	f := func(attrs, vals [4]string) bool {
		var src strings.Builder
		fmt.Fprintf(&src, "%s=%s\n", clean(attrs[0]), clean(vals[0]))
		for i := 1; i < 4; i++ {
			fmt.Fprintf(&src, "\t%s=%s\n", clean(attrs[i]), clean(vals[i]))
		}
		f1, err := Parse("a", []byte(src.String()))
		if err != nil || len(f1.Entries) != 1 {
			return false
		}
		f2, err := Parse("b", []byte(f1.Entries[0].String()+"\n"))
		if err != nil || len(f2.Entries) != 1 {
			return false
		}
		return f1.Entries[0].String() == f2.Entries[0].String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
