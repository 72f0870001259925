package core

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dialer"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/vfs"
)

func paperWorld(t *testing.T) *World {
	t.Helper()
	w, err := PaperWorld(FastProfiles())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestCsqueryTranscript(t *testing.T) {
	// % ndb/csquery
	// > net!helix!9fs
	// /net/il/clone 135.104.9.31!17008
	// /net/dk/clone nj/astro/helix!9fs
	w := paperWorld(t)
	musca := w.Machine("musca")
	lines, err := musca.NdbQuery("net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"/net/il/clone 135.104.9.31!17008": false,
		"/net/dk/clone nj/astro/helix!9fs": false,
	}
	for _, l := range lines {
		if _, ok := want[l]; ok {
			want[l] = true
		}
	}
	for l, seen := range want {
		if !seen {
			t.Errorf("csquery missing line %q (got %v)", l, lines)
		}
	}
	// IL is the protocol of choice: it must come before dk.
	ilAt, dkAt := -1, -1
	for i, l := range lines {
		if strings.HasPrefix(l, "/net/il/") {
			ilAt = i
		}
		if strings.HasPrefix(l, "/net/dk/") {
			dkAt = i
		}
	}
	if ilAt == -1 || dkAt == -1 || ilAt > dkAt {
		t.Errorf("network preference order wrong: %v", lines)
	}
}

func TestCsqueryMetaNameAuth(t *testing.T) {
	// > net!$auth!rexauth resolves the auth attribute most closely
	// associated with the source (the network entry's auth=p9auth)
	// and returns a line per common network.
	w := paperWorld(t)
	helix := w.Machine("helix")
	lines, err := helix.NdbQuery("net!$auth!rexauth")
	if err != nil {
		t.Fatal(err)
	}
	foundIL, foundDK := false, false
	for _, l := range lines {
		if l == "/net/il/clone 135.104.9.34!17021" {
			foundIL = true
		}
		if l == "/net/dk/clone nj/astro/p9auth!rexauth" {
			foundDK = true
		}
	}
	if !foundIL || !foundDK {
		t.Errorf("$auth translation wrong: %v", lines)
	}
}

func TestCsquerySpecificNetworkAndAddresses(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	// Addresses instead of symbolic names are equivalent (§5.1).
	lines, err := musca.NdbQuery("tcp!135.104.9.31!login")
	if err != nil || len(lines) != 1 || lines[0] != "/net/tcp/clone 135.104.9.31!513" {
		t.Errorf("literal address: %v, %v", lines, err)
	}
	lines, err = musca.NdbQuery("tcp!helix!login")
	if err != nil || len(lines) != 1 || lines[0] != "/net/tcp/clone 135.104.9.31!513" {
		t.Errorf("symbolic name: %v, %v", lines, err)
	}
	// Unknown service on a known net fails.
	if _, err := musca.NdbQuery("tcp!helix!flurble"); err == nil {
		t.Error("unknown service translated")
	}
	// Datakit-only machine is not offered on tcp.
	if _, err := musca.NdbQuery("tcp!philw-gnot!echo"); err == nil {
		t.Error("dk-only host resolved on tcp")
	}
}

func TestDialEchoOverEveryNetwork(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	for _, dest := range []string{"il!helix!echo", "tcp!helix!echo", "dk!nj/astro/helix!echo", "net!helix!echo"} {
		conn, err := dialer.Dial(musca.NS, dest)
		if err != nil {
			t.Errorf("dial %s: %v", dest, err)
			continue
		}
		conn.Write([]byte("ping " + dest))
		buf := make([]byte, 256)
		total := 0
		for total < len("ping "+dest) {
			n, err := conn.Read(buf[total:])
			if err != nil {
				t.Errorf("%s read: %v", dest, err)
				break
			}
			total += n
		}
		if got := string(buf[:total]); got != "ping "+dest {
			t.Errorf("%s echoed %q", dest, got)
		}
		conn.Close()
	}
}

func TestDialViaDNSOnlyName(t *testing.T) {
	// tenex is known only to the DNS zone, not to ndb: CS must go
	// through the resolver (which walks root → bootes delegation).
	w := paperWorld(t)
	musca := w.Machine("musca")
	conn, err := dialer.Dial(musca.NS, "tcp!tenex.research.bell-labs.com!echo")
	if err != nil {
		t.Fatalf("dial via DNS: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("dns"))
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "dns" {
		t.Fatalf("echo via DNS name: %q, %v", buf[:n], err)
	}
	if musca.Resolver.Queries == 0 {
		t.Error("resolver sent no queries")
	}
}

func TestNetDNSFile(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	fd, err := musca.NS.Open("/net/dns", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if _, err := fd.WriteString("helix.research.bell-labs.com ip"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := fd.ReadAt(buf, 0)
	if err != nil || n == 0 {
		t.Fatalf("dns read: %d, %v", n, err)
	}
	line := strings.TrimSpace(string(buf[:n]))
	if line != "helix.research.bell-labs.com ip 135.104.9.31" {
		t.Errorf("dns line %q", line)
	}
	// CNAME chains resolve.
	if _, err := fd.WriteString("fs.research.bell-labs.com ip"); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for {
		n, _ := fd.ReadAt(buf, 0)
		if n == 0 {
			break
		}
		lines = append(lines, strings.TrimSpace(string(buf[:n])))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "cname bootes.research.bell-labs.com") ||
		!strings.Contains(joined, "135.104.9.2") {
		t.Errorf("cname resolution: %v", lines)
	}
	// Caching: repeated queries answer from the cache.
	before := musca.Resolver.Queries
	fd.WriteString("helix.research.bell-labs.com ip")
	if musca.Resolver.Queries != before {
		t.Error("cached query went to the network")
	}
}

func TestImportGatewayParagraph(t *testing.T) {
	// §6.1: a terminal with only a Datakit connection imports /net
	// from a CPU server and can then reach TCP services:
	//
	//	import -a helix /net
	//	telnet ai.mit.edu
	w := paperWorld(t)
	gnot := w.Machine("philw-gnot")

	// Before the import the terminal has cs, dk, and the mount
	// driver's own stats dir only.
	before := gnot.LsNet()
	sort.Strings(before)
	if strings.Join(before, " ") != "cs dk mnt" {
		t.Fatalf("gnot /net before import: %v", before)
	}
	if _, err := dialer.Dial(gnot.NS, "tcp!helix!echo"); err == nil {
		t.Fatal("tcp dial succeeded without the gateway")
	}

	if _, err := gnot.Import("dk!nj/astro/helix!exportfs", "/net", "/net", ns.MAFTER); err != nil {
		t.Fatal(err)
	}

	// ls /net now shows local entries and remote ones; cs and dk
	// appear twice, as the paper's transcript shows.
	after := gnot.LsNet()
	count := map[string]int{}
	for _, n := range after {
		count[n]++
	}
	if count["cs"] != 2 || count["dk"] != 2 {
		t.Errorf("cs/dk should list twice after import -a: %v", after)
	}
	for _, want := range []string{"tcp", "il", "udp", "dns", "ether0"} {
		if count[want] != 1 {
			t.Errorf("%s missing from imported /net (%v)", want, after)
		}
	}

	// And now TCP works, relayed through helix.
	conn, err := dialer.Dial(gnot.NS, "tcp!helix!echo")
	if err != nil {
		t.Fatalf("tcp through gateway: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("through the gateway"))
	buf := make([]byte, 64)
	total := 0
	want := "through the gateway"
	for total < len(want) {
		n, err := conn.Read(buf[total:])
		if err != nil {
			t.Fatalf("gateway echo read: %v", err)
		}
		total += n
	}
	if string(buf[:total]) != want {
		t.Errorf("gateway echo %q", buf[:total])
	}
}

func TestMount9fsFromFileServer(t *testing.T) {
	// A CPU server mounts the file server's tree over IL — the 9fs
	// service — and reads a file from it.
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	if err := bootes.Root.WriteFile("lib/motd", []byte("plan 9 from bell labs\n"), 0664); err != nil {
		t.Fatal(err)
	}
	if _, err := helix.Import("il!bootes!9fs", "/", "/n/bootes", ns.MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := helix.NS.ReadFile("/n/bootes/lib/motd")
	if err != nil || string(b) != "plan 9 from bell labs\n" {
		t.Fatalf("read over 9fs/IL: %q, %v", b, err)
	}
}

func TestMount9fsOverTCPWithMarshaling(t *testing.T) {
	// The same mount over TCP exercises the §2.1 marshaling layer
	// (TCP does not preserve delimiters).
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	musca := w.Machine("musca")
	bootes.Root.WriteFile("lib/motd", []byte("via tcp"), 0664)
	if _, err := musca.Import("tcp!bootes!9fs", "/", "/n/bootes", ns.MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := musca.NS.ReadFile("/n/bootes/lib/motd")
	if err != nil || string(b) != "via tcp" {
		t.Fatalf("read over 9fs/TCP: %q, %v", b, err)
	}
}

func TestNinePOverCyclone(t *testing.T) {
	// File servers and CPU servers are connected by Cyclone links
	// carrying 9P (§7): helix mounts bootes over the fiber.
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	bootes.Root.WriteFile("lib/fiber", []byte("125 Mbit/s"), 0664)
	if _, err := bootes.Serve9P("cyc0!*!9fs", "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := helix.MountRemote("cyc0!bootes!9fs", "", "/n/boot", ns.MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := helix.NS.ReadFile("/n/boot/lib/fiber")
	if err != nil || string(b) != "125 Mbit/s" {
		t.Fatalf("read over cyclone: %q, %v", b, err)
	}
}

func TestWriteThroughImportedTree(t *testing.T) {
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	if _, err := helix.Import("il!bootes!9fs", "/tmp", "/n/btmp", ns.MREPL|ns.MCREATE); err != nil {
		t.Fatal(err)
	}
	if err := helix.NS.WriteFile("/n/btmp/out", []byte("written from helix"), 0664); err != nil {
		t.Fatal(err)
	}
	b, err := bootes.Root.ReadFile("tmp/out")
	if err != nil || string(b) != "written from helix" {
		t.Fatalf("file server saw %q, %v", b, err)
	}
}

func TestEchoServerListenerShape(t *testing.T) {
	// The §5.2 example: announce tcp!*!echo, listen, accept, echo —
	// but written against our dialer API on a fresh service port.
	w := paperWorld(t)
	musca := w.Machine("musca")
	helix := w.Machine("helix")
	l, err := dialer.Announce(musca.NS, "tcp!*!daytime")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			call, err := l.Listen()
			if err != nil {
				return
			}
			go func() {
				conn, err := call.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				conn.Write([]byte("Thu Jan  7 10:00:00 EST 1993\n"))
			}()
		}
	}()
	conn, err := dialer.Dial(helix.NS, "tcp!musca!daytime")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil || !strings.Contains(string(buf[:n]), "1993") {
		t.Fatalf("daytime read %q, %v", buf[:n], err)
	}
}

func TestRejectCall(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	helix := w.Machine("helix")
	l, err := dialer.Announce(musca.NS, "il!*!systat")
	if err != nil {
		// systat is a tcp-only service name; announce via tcp.
		l, err = dialer.Announce(musca.NS, "tcp!*!systat")
		if err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()
	go func() {
		call, err := l.Listen()
		if err != nil {
			return
		}
		call.Reject("not today")
	}()
	conn, err := dialer.Dial(helix.NS, "tcp!musca!systat")
	if err != nil {
		return // refused during connect: acceptable
	}
	defer conn.Close()
	// The connection may establish and then immediately hang up.
	buf := make([]byte, 16)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
	t.Error("rejected call kept a live connection")
}

func TestLocalRemoteStatusFilesViaDialer(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	conn, err := dialer.Dial(musca.NS, "il!helix!echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if ra := conn.RemoteAddr(musca.NS); ra != "135.104.9.31!56552" {
		t.Errorf("remote addr %q", ra)
	}
	if la := conn.LocalAddr(musca.NS); !strings.HasPrefix(la, "135.104.9.6!") {
		t.Errorf("local addr %q", la)
	}
}

func TestMachineBootErrors(t *testing.T) {
	w, err := NewWorld(PaperNdb)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.AddEther("ether0", FastProfiles().Ether)
	if _, err := w.NewMachine(MachineConfig{Name: "ghost", Ethers: []string{"ether0"}}); err == nil {
		t.Error("boot of undatabased machine succeeded")
	}
	if _, err := w.NewMachine(MachineConfig{Name: "helix", Ethers: []string{"nonet"}}); err == nil {
		t.Error("boot on missing segment succeeded")
	}
	if _, err := w.NewMachine(MachineConfig{Name: "helix", Datakit: true}); err == nil {
		t.Error("datakit boot without a switch succeeded")
	}
}

func TestNdbVisibleInNamespace(t *testing.T) {
	w := paperWorld(t)
	helix := w.Machine("helix")
	b, err := helix.NS.ReadFile("/lib/ndb/local")
	if err != nil || !strings.Contains(string(b), "sys=helix") {
		t.Errorf("/lib/ndb/local: %v", err)
	}
}

func TestImportOverDisciplinedConversation(t *testing.T) {
	// A 9P mount whose transport conversation runs the batch+compress
	// line disciplines: the server announces with mods, the client
	// pushes the same stack via MountRemoteConfig's mods, and the tree
	// works exactly as over a bare conversation.
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	motd := strings.Repeat("plan 9 from bell labs\n", 200)
	if err := bootes.Root.WriteFile("lib/motd", []byte(motd), 0664); err != nil {
		t.Fatal(err)
	}
	mods := []string{"compress", "batch 2048 2ms"}
	stop, err := bootes.Serve9P("tcp!*!9990", "/", mods...)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := helix.MountRemoteConfig("tcp!bootes!9990", "", "/n/bootes",
		ns.MREPL, mnt.Config{}, mods...); err != nil {
		t.Fatal(err)
	}
	b, err := helix.NS.ReadFile("/n/bootes/lib/motd")
	if err != nil || string(b) != motd {
		t.Fatalf("read over disciplined 9P: %d bytes, %v", len(b), err)
	}
	// The client conversation's stats file bills the modules: find it
	// and check the counters balance.
	ents, err := helix.NS.ReadDir("/net/tcp")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sb, err := helix.NS.ReadFile("/net/tcp/" + e.Name + "/stats")
		if err != nil || len(sb) == 0 {
			continue
		}
		st := obs.ParseStats(string(sb))
		if st["batch-msgs-in"] == 0 {
			continue
		}
		found = true
		if st["compress-saved-bytes"]+st["compress-wire-bytes"] != st["compress-bytes-in"] {
			t.Errorf("compress identity broken:\n%s", sb)
		}
		if st["compress-saved-bytes"] == 0 {
			t.Errorf("9P carrying a repetitive file saved no bytes:\n%s", sb)
		}
		if st["compress-dec-errs"] != 0 || st["batch-errs"] != 0 {
			t.Errorf("decode errors on a clean mount:\n%s", sb)
		}
	}
	if !found {
		t.Error("no conversation shows module stats on the importing machine")
	}
}

// TestImportCyclesForgetDeadMounts is the tenant of a gateway storm: a
// machine that imports, reads and unmounts per operation. Its books
// must not grow with the operations — a closed mount leaves the
// teardown list at the next one — while /net/mnt/stats goes on summing
// every mount ever made, exactly as the per-client figures add up.
func TestImportCyclesForgetDeadMounts(t *testing.T) {
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	if err := bootes.Root.WriteFile("lib/motd", []byte("plan 9 from bell labs\n"), 0664); err != nil {
		t.Fatal(err)
	}
	nclosers := func() int {
		helix.mu.Lock()
		defer helix.mu.Unlock()
		return len(helix.closers)
	}
	base := nclosers()
	const cycles = 500
	var cls []*ninep.Client
	for i := range cycles {
		cl, err := helix.Import("il!bootes!9fs", "/lib", "/n/bootes", ns.MREPL)
		if err != nil {
			t.Fatalf("import %d: %v", i, err)
		}
		if b, err := helix.NS.ReadFile("/n/bootes/motd"); err != nil || string(b) != "plan 9 from bell labs\n" {
			t.Fatalf("read %d: %q, %v", i, b, err)
		}
		cl.Close()
		cls = append(cls, cl)
		// Only the mount just closed may still be on the list.
		if n := nclosers(); n > base+1 {
			t.Fatalf("after %d cycles the machine holds %d closers, want at most %d", i+1, n, base+1)
		}
	}
	b, err := helix.NS.ReadFile("/net/mnt/stats")
	if err != nil {
		t.Fatal(err)
	}
	var want mntBooks
	for _, cl := range cls {
		want.add(cl)
	}
	st := obs.ParseStats(string(b))
	hist := obs.ParseHistSnap(string(b), "rpc")
	if st["mounts"] != cycles || st["rpcs"] != want.rpcs || st["flushes"] != want.flushes ||
		st["window-max"] != want.wmax || hist.Count != want.hist.Count || hist.Buckets != want.hist.Buckets {
		t.Errorf("/net/mnt/stats does not sum the %d clients (%d rpcs, %d flushes, window %d, %d latencies):\n%s",
			cycles, want.rpcs, want.flushes, want.wmax, want.hist.Count, b)
	}
	if want.rpcs < 3*cycles {
		t.Errorf("%d rpcs over %d mounts: the imports did no work", want.rpcs, cycles)
	}
}
