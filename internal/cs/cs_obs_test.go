package cs

import (
	"strings"
	"testing"

	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// Deeper connection-server behavior: answer ordering must survive
// repeated queries, and the answer cache must key on the reachable
// network set (an import landing must change the answers, never
// serve stale ones).

func TestRepeatedQueryHitsCacheSameOrder(t *testing.T) {
	s := newServer(t, nil)

	first, err := tr(s, "net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr(s, "net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("repeat changed the answer:\n%v\n%v", first, second)
	}
	// Preference order must hold on the cached answer too: IL before
	// Datakit for a net! wildcard.
	if !strings.HasPrefix(second[0], "/net/il/clone ") {
		t.Errorf("cached answer lost preference order: %v", second)
	}
	if got := s.CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := s.Queries.Load(); got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}
}

// The cache's answers are shared and immutable, and a caller only ever
// sees a copy: the query file's reads land in the caller's buffer.
func TestCallerCannotPoisonCache(t *testing.T) {
	s := newServer(t, nil)
	nsp := ns.New("self", ramfs.New("self").Root())
	nsp.MountNode(s.Node("self"), "/net/cs", ns.MREPL)
	fd, err := nsp.Open("/net/cs/cs", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	buf := make([]byte, 256)
	for i := range 2 {
		if _, err := fd.WriteString("tcp!helix!echo"); err != nil {
			t.Fatal(err)
		}
		n, _ := fd.ReadAt(buf, 0)
		if got := strings.TrimSpace(string(buf[:n])); got != "/net/tcp/clone 135.104.9.31!7" {
			t.Errorf("query %d: cs served %q", i, got)
		}
		copy(buf, "scribbled")
	}
	if s.CacheHits.Load() != 1 {
		t.Errorf("second query should have hit the cache")
	}
}

func TestCacheKeysOnReachableNetworks(t *testing.T) {
	// The paper's dynamic: a terminal starts with only Datakit, then
	// an import makes IP networks appear in /net. The same query must
	// then produce a different (better) answer, not the cached one.
	reachable := map[string]bool{"/net/dk/clone": true}
	s := newServer(t, func(clone string) bool { return reachable[clone] })

	before, err := tr(s, "net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || !strings.HasPrefix(before[0], "/net/dk/clone ") {
		t.Fatalf("dk-only answer: %v", before)
	}

	// The import lands: IL becomes dialable.
	reachable["/net/il/clone"] = true
	after, err := tr(s, "net!helix!9fs")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 || !strings.HasPrefix(after[0], "/net/il/clone ") {
		t.Fatalf("post-import answer not refreshed: %v", after)
	}
	if s.CacheHits.Load() != 0 {
		t.Errorf("stale cache hit across a reachability change")
	}

	// Same reachable set again: now it may (and should) hit.
	if _, err := tr(s, "net!helix!9fs"); err != nil {
		t.Fatal(err)
	}
	if s.CacheHits.Load() != 1 {
		t.Errorf("identical query+reachability did not hit the cache")
	}
}

func TestFailedQueryCountsError(t *testing.T) {
	s := newServer(t, nil)
	if _, err := tr(s, "fddi!helix!echo"); err == nil {
		t.Fatal("unknown network translated")
	}
	if s.Errors.Load() != 1 {
		t.Errorf("errors = %d, want 1", s.Errors.Load())
	}
	// Failures are never cached: the same query asks again.
	tr(s, "fddi!helix!echo")
	if s.CacheHits.Load() != 0 {
		t.Errorf("a failed answer was cached")
	}
}

func TestStatsFileAgreesWithCounters(t *testing.T) {
	s := newServer(t, nil)
	tr(s, "net!helix!9fs")
	tr(s, "net!helix!9fs")
	tr(s, "fddi!helix!echo")
	parsed := obs.ParseStats(s.StatsGroup().Render())
	for name, want := range map[string]int64{
		"queries":    s.Queries.Load(),
		"cache-hits": s.CacheHits.Load(),
		"misses":     s.Misses.Load(),
		"errors":     s.Errors.Load(),
	} {
		if parsed[name] != want {
			t.Errorf("stats %s = %d, counter %d", name, parsed[name], want)
		}
	}
}
