package cs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/ndb"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Cache-engine behavior: version-keyed invalidation, TTLs, eviction at
// capacity and singleflight collapse on the virtual clock, short reads
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

// virtualServer builds a server on an explicit clock, with its
// database file for the tests that replace it.
func virtualServer(t *testing.T, ck vclock.Clock, extra Config) (*Server, *ndb.File) {
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
	return New(cfg), f
}

// TestNegativeCacheTTLOnVirtualClock: an ErrNotExist answer is served
// from the cache (no second database walk) until its negative TTL
// runs out on the simulated clock, then re-asked.
func TestNegativeCacheTTLOnVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s, _ := virtualServer(t, v, Config{})
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

		// Under the TTL the hit keeps serving; at it the entry dies.
		v.Sleep(negTTL - time.Nanosecond)
		s.Translate("tcp!ghost!echo")
		if s.NegHits.Load() != 2 {
			t.Fatalf("neg-hits=%d, want 2 inside the TTL", s.NegHits.Load())
		}
		v.Sleep(time.Nanosecond)
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
		s, _ := virtualServer(t, v, Config{})
		if _, err := s.Translate("tcp!helix!echo"); err != nil {
			t.Fatal(err)
		}
		v.Sleep(ttl - time.Nanosecond)
		s.Translate("tcp!helix!echo")
		if s.CacheHits.Load() != 1 {
			t.Fatalf("hits=%d, want 1 inside the TTL", s.CacheHits.Load())
		}
		v.Sleep(time.Nanosecond)
		s.Translate("tcp!helix!echo")
		if s.CacheHits.Load() != 1 || s.Misses.Load() != 2 {
			t.Fatalf("hits=%d misses=%d after expiry, want 1/2", s.CacheHits.Load(), s.Misses.Load())
		}
	})
}

// cached reports whether any entry answers q, without asking.
func cached(s *Server, q string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.cache {
		if k.q == q {
			return true
		}
	}
	return false
}

// TestEvictionAtCapacity pins which entries a full cache drops to make
// room: the one due to expire first, the smaller key on a tie — and,
// whenever there are any, every entry computed against an older
// database or past its TTL, all at once.
func TestEvictionAtCapacity(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s, f := virtualServer(t, v, Config{})
		ask := func(q string) {
			t.Helper()
			if _, err := s.Translate(q); err != nil {
				t.Fatal(err)
			}
		}
		fill := func(net, n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				ask(fmt.Sprintf("tcp!10.%d.%d.%d!7", net, i/256, i%256))
			}
		}
		entries := func() int64 { return obs.ParseStats(s.StatsGroup().Render())["entries"] }
		expect := func(n, evicted int64) {
			t.Helper()
			if entries() != n || s.Evictions.Load() != evicted {
				t.Fatalf("entries=%d evictions=%d, want %d/%d", entries(), s.Evictions.Load(), n, evicted)
			}
		}

		// t=0: a negative answer (due at 5 s), then positive ones (60 s)
		// up to capacity.
		s.Translate("tcp!ghost!echo")
		fill(0, maxEntries-1)
		expect(maxEntries, 0)

		// Full, nothing stale: the entry due first goes, the negative one.
		v.Sleep(time.Second)
		ask("tcp!10.1.0.0!7")
		expect(maxEntries, 1)
		if cached(s, "tcp!ghost!echo") {
			t.Fatal("the negative entry, due first, survived")
		}
		// Then a tie at 60 s among the t=0 entries: the smallest key goes.
		ask("tcp!10.1.0.1!7")
		expect(maxEntries, 2)
		if cached(s, "tcp!10.0.0.0!7") || !cached(s, "tcp!10.0.0.1!7") {
			t.Fatal("the tie did not evict the smallest key, tcp!10.0.0.0!7")
		}

		// A new database outdates every entry: one insert drops them all.
		moved := strings.Replace(testNdb, "auth=p9auth", "auth=helix", 1)
		nf, err := ndb.Parse("local", []byte(moved))
		if err != nil {
			t.Fatal(err)
		}
		f.Replace(nf.Entries)
		ask("tcp!10.1.0.2!7")
		expect(1, 2+maxEntries)

		// Refill at t=1 s; at t=61 s every entry has expired.
		fill(2, maxEntries-1)
		expect(maxEntries, 2+maxEntries)
		v.Sleep(ttl)
		ask("tcp!10.1.0.3!7")
		expect(1, 2+2*maxEntries)
		if !cached(s, "tcp!10.1.0.3!7") {
			t.Fatal("the new entry is missing")
		}
	})
}

// TestSingleflightCollapsesConcurrentMisses: concurrent identical
// misses do one computation. The leader parks in DNS for a simulated
// second; every follower arrives meanwhile, joins its flight, and gets
// its answer at the instant it is computed.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	const followers = 8
	v := vclock.NewVirtual()
	v.Run(func() {
		resolves := 0
		s, _ := virtualServer(t, v, Config{Resolve: func(domain string) ([]ip.Addr, error) {
			resolves++
			v.Sleep(time.Second)
			return []ip.Addr{{1, 2, 3, 4}}, nil
		}})
		start := v.Now()
		wg := vclock.NewWaitGroup(v)
		results := make([][]string, followers+1)
		for i := range results {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				a, err := s.Translate("tcp!ai.mit.edu!echo")
				if err != nil {
					t.Errorf("translate: %v", err)
				}
				results[i] = a.lines
			})
		}
		wg.Wait()
		if resolves != 1 {
			t.Fatalf("resolver ran %d times, want 1", resolves)
		}
		if got := v.Since(start); got != time.Second {
			t.Fatalf("flight took %v, want the resolver's 1s", got)
		}
		for i, r := range results {
			if len(r) != 1 || r[0] != "/net/tcp/clone 1.2.3.4!7" {
				t.Fatalf("goroutine %d got %v", i, r)
			}
		}
		if s.Misses.Load() != 1 || s.SFWaits.Load() != followers || s.CacheHits.Load() != 0 {
			t.Fatalf("misses=%d waits=%d hits=%d, want 1/%d/0",
				s.Misses.Load(), s.SFWaits.Load(), s.CacheHits.Load(), followers)
		}
	})
}

// TestConcurrentTranslateHammer runs a mixed workload through the one
// lock and the singleflight from real goroutines under the race
// detector, then balances the books: every query lands in exactly one
// outcome counter.
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
