package cs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/ndb"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Cache-engine behavior: version-keyed invalidation, TTLs on the
// virtual clock, clock eviction, singleflight collapse, short reads
// through the file interface, and the counter balance under a
// concurrent hammer.

// TestShortReadResumesMidLine pins the query file's short reads: a reader
// with a buffer shorter than the destination line must receive the
// whole line across several reads, not a truncated prefix.
func TestShortReadResumesMidLine(t *testing.T) {
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
	// 7 bytes at a time: both lines must reassemble exactly.
	var got strings.Builder
	buf := make([]byte, 7)
	for {
		n, err := fd.ReadAt(buf, 0)
		if n == 0 || err != nil {
			break
		}
		got.Write(buf[:n])
	}
	want := "/net/il/clone 135.104.9.31!17008\n/net/dk/clone nj/astro/helix!9fs\n"
	if got.String() != want {
		t.Fatalf("short reads reassembled %q, want %q", got.String(), want)
	}
}

// TestReplaceReResolvesDollarAttr pins the stale-$attr fix: the cache
// key is the query, which never observes the $attr rewrite — only the
// ndb version stamp keeps it honest. After a Replace changes what
// $auth means, the very next Translate must re-resolve.
func TestReplaceReResolvesDollarAttr(t *testing.T) {
	f, err := ndb.Parse("local", []byte(testNdb))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		SysName:  "self",
		DB:       ndb.New(f),
		Networks: []Network{{Name: "il", Clone: "/net/il/clone", Kind: KindIP}},
	})
	first, err := tr(s, "il!$auth!rexauth")
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != "/net/il/clone 135.104.9.34!17021" {
		t.Fatalf("initial $auth answer %v", first)
	}
	if _, err := tr(s, "il!$auth!rexauth"); err != nil {
		t.Fatal(err)
	}
	if s.CacheHits.Load() != 1 {
		t.Fatalf("cache hits = %d, want 1 before Replace", s.CacheHits.Load())
	}

	// The administrator moves the auth role to helix.
	moved := strings.Replace(testNdb, "auth=p9auth", "auth=helix", 1)
	nf, err := ndb.Parse("local", []byte(moved))
	if err != nil {
		t.Fatal(err)
	}
	f.Replace(nf.Entries)

	after, err := tr(s, "il!$auth!rexauth")
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != "/net/il/clone 135.104.9.31!17021" {
		t.Fatalf("post-Replace $auth answer %v, want helix's address", after)
	}
	if s.CacheHits.Load() != 1 {
		t.Errorf("Replace did not invalidate: hits = %d", s.CacheHits.Load())
	}
}

// virtualServer builds a server on an explicit clock.
func virtualServer(t *testing.T, ck vclock.Clock, extra Config) *Server {
	t.Helper()
	f, err := ndb.Parse("local", []byte(testNdb))
	if err != nil {
		t.Fatal(err)
	}
	cfg := extra
	cfg.SysName = "self"
	cfg.DB = ndb.New(f)
	cfg.Networks = []Network{
		{Name: "il", Clone: "/net/il/clone", Kind: KindIP},
		{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP},
		{Name: "dk", Clone: "/net/dk/clone", Kind: KindDatakit},
	}
	cfg.Clock = ck
	return New(cfg)
}

// TestNegativeCacheTTLOnVirtualClock: an ErrNotExist answer is served
// from the cache (no second database walk) until its negative TTL
// runs out on the simulated clock, then re-asked.
func TestNegativeCacheTTLOnVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s := virtualServer(t, v, Config{NegTTL: 5 * time.Second})
		if _, err := s.Translate("tcp!ghost!echo"); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Fatalf("ghost error = %v", err)
		}
		_, hashed := s.cfg.DB.Counters()
		if _, err := s.Translate("tcp!ghost!echo"); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Fatalf("cached ghost error = %v", err)
		}
		if s.NegHits.Load() != 1 || s.CacheHits.Load() != 1 {
			t.Fatalf("neg-hits=%d cache-hits=%d, want 1/1", s.NegHits.Load(), s.CacheHits.Load())
		}
		if _, h2 := s.cfg.DB.Counters(); h2 != hashed {
			t.Fatalf("negative hit walked the database (%d -> %d searches)", hashed, h2)
		}

		// Under the TTL the hit keeps serving; past it the entry dies.
		v.Sleep(4 * time.Second)
		s.Translate("tcp!ghost!echo")
		if s.NegHits.Load() != 2 {
			t.Fatalf("neg-hits=%d, want 2 inside the TTL", s.NegHits.Load())
		}
		v.Sleep(2 * time.Second) // 6s after publish: expired
		s.Translate("tcp!ghost!echo")
		if s.NegHits.Load() != 2 {
			t.Fatalf("neg-hits=%d after expiry, want still 2", s.NegHits.Load())
		}
		if got := s.Errors.Load(); got != 2 {
			t.Fatalf("errors=%d, want 2 (initial + post-expiry recompute)", got)
		}
	})
}

// TestPositiveTTLExpiryOnVirtualClock: positive answers also expire.
func TestPositiveTTLExpiryOnVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s := virtualServer(t, v, Config{TTL: 60 * time.Second})
		if _, err := s.Translate("tcp!helix!echo"); err != nil {
			t.Fatal(err)
		}
		v.Sleep(59 * time.Second)
		s.Translate("tcp!helix!echo")
		if s.CacheHits.Load() != 1 {
			t.Fatalf("hits=%d, want 1 inside the TTL", s.CacheHits.Load())
		}
		v.Sleep(2 * time.Second)
		s.Translate("tcp!helix!echo")
		if s.CacheHits.Load() != 1 || s.Misses.Load() != 2 {
			t.Fatalf("hits=%d misses=%d after expiry, want 1/2", s.CacheHits.Load(), s.Misses.Load())
		}
	})
}

// TestClockEvictionBoundsEntries: past capacity the second-chance
// clock evicts cold entries one at a time — the wholesale drop is
// gone — and the entries gauge stays bounded.
func TestClockEvictionBoundsEntries(t *testing.T) {
	f, err := ndb.Parse("local", []byte(testNdb))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		SysName:      "self",
		DB:           ndb.New(f),
		Networks:     []Network{{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP}},
		CacheEntries: nShards, // one entry per shard
	})
	// Distinct literal-IP queries all cache; capacity forces eviction.
	queries := []string{
		"tcp!10.0.0.1!7", "tcp!10.0.0.2!7", "tcp!10.0.0.3!7", "tcp!10.0.0.4!7",
		"tcp!10.0.0.5!7", "tcp!10.0.0.6!7", "tcp!10.0.0.7!7", "tcp!10.0.0.8!7",
	}
	for round := 0; round < 8; round++ {
		for _, q := range queries {
			if _, err := s.Translate(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	var entries int
	for i := range s.shards {
		entries += s.shards[i].entries()
	}
	if entries > len(queries) {
		t.Fatalf("entries=%d above bound", entries)
	}
	hot := s.CacheHits.Load() + s.Misses.Load()
	if hot != int64(8*len(queries)) {
		t.Fatalf("hits+misses=%d, want %d", hot, 8*len(queries))
	}
	// Any colliding shard had capacity 1, so collisions evicted.
	if s.Evictions.Load() == 0 {
		t.Skip("no two queries shared a shard at this capacity")
	}
}

// TestSingleflightCollapsesConcurrentMisses: concurrent identical
// misses do one computation. The resolver blocks until the waiters
// have queued up, so exactly one DNS walk can serve them all.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	const followers = 8
	gate := make(chan struct{})
	var resolves int64
	var mu sync.Mutex
	f, err := ndb.Parse("local", []byte(testNdb))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		SysName:  "self",
		DB:       ndb.New(f),
		Networks: []Network{{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP}},
		Resolve: func(domain string) ([]ip.Addr, error) {
			mu.Lock()
			resolves++
			mu.Unlock()
			<-gate
			return []ip.Addr{{1, 2, 3, 4}}, nil
		},
	})
	var wg sync.WaitGroup
	results := make([][]string, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := s.Translate("tcp!ai.mit.edu!echo")
			if err != nil {
				t.Errorf("translate: %v", err)
			}
			results[i] = a.Lines()
		}(i)
	}
	// Wait until every follower has either joined the flight or is
	// about to: the leader is parked in Resolve, so once SFWaits
	// would-be joiners block on the cond, releasing the gate lets one
	// computation serve everyone. (Late arrivals after the gate just
	// hit the cache; either way resolves stays 1.)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		mu.Lock()
		r := resolves
		mu.Unlock()
		if r >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if resolves != 1 {
		t.Fatalf("resolver ran %d times, want 1", resolves)
	}
	for i, r := range results {
		if len(r) != 1 || r[0] != "/net/tcp/clone 1.2.3.4!7" {
			t.Fatalf("goroutine %d got %v", i, r)
		}
	}
	if s.SFWaits.Load()+s.CacheHits.Load() != followers {
		t.Fatalf("waits=%d hits=%d, want %d combined",
			s.SFWaits.Load(), s.CacheHits.Load(), followers)
	}
}

// TestConcurrentTranslateHammer runs a mixed workload across the
// shards and the singleflight under the race detector, then balances
// the books: every query lands in exactly one outcome counter.
func TestConcurrentTranslateHammer(t *testing.T) {
	s := newServer(t, nil)
	queries := []string{
		"net!helix!9fs", "tcp!helix!echo", "il!p9auth!rexauth",
		"dk!dkonly!9fs", "tcp!10.1.2.3!7", "tcp!ghost!echo",
		"fddi!helix!echo", "garbage",
	}
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Translate(queries[(w+i)%len(queries)])
			}
		}(w)
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if got := s.Queries.Load(); got != total {
		t.Fatalf("queries=%d, want %d", got, total)
	}
	sum := s.CacheHits.Load() + s.SFWaits.Load() + s.Misses.Load() + s.Errors.Load()
	if sum != total {
		t.Fatalf("books don't balance: hits=%d waits=%d misses=%d errors=%d sum=%d queries=%d",
			s.CacheHits.Load(), s.SFWaits.Load(), s.Misses.Load(), s.Errors.Load(), sum, total)
	}
	if s.Lat.SnapshotHist().Count != total {
		t.Fatalf("latency samples=%d, want %d", s.Lat.SnapshotHist().Count, total)
	}
}
