package cs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ndb"
	"repro/internal/vclock"
)

// Benchmarks of the answer cache from parallel real-clock goroutines: a
// contention no machine's CS sees, since its dialers run one at a time
// on the virtual clock. DESIGN "Connection server at scale" records
// their rows.

// benchNdb synthesizes a database with n dialable systems, each on
// both IP and Datakit like the paper's dual-homed machines.
func benchNdb(tb testing.TB, n int) *ndb.DB {
	var b strings.Builder
	b.WriteString("tcp=echo port=7\nil=9fs port=17008\ntcp=9fs port=564\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "sys=h%04d ip=10.%d.%d.%d dk=nj/astro/h%04d\n",
			i, i/65536, (i/256)%256, i%256, i)
	}
	f, err := ndb.Parse("bench", []byte(b.String()))
	if err != nil {
		tb.Fatal(err)
	}
	db := ndb.New(f)
	db.HashAll("sys", "dom", "ip", "dk", "tcp", "il", "udp")
	return db
}

// benchServer mirrors the machine's real CS config: the full network
// list in preference order, so a net! wildcard walks all of them on a
// miss — what a boot-time dial actually costs.
func benchServer(tb testing.TB, systems int, ck vclock.Clock) *Server {
	return New(Config{
		SysName: "h0000",
		DB:      benchNdb(tb, systems),
		Networks: []Network{
			{Name: "il", Clone: "/net/il/clone", Kind: KindIP},
			{Name: "tcp", Clone: "/net/tcp/clone", Kind: KindIP},
			{Name: "udp", Clone: "/net/udp/clone", Kind: KindIP},
			{Name: "dk", Clone: "/net/dk/clone", Kind: KindDatakit},
		},
		Clock: ck,
	})
}

// agingClock moves a TTL forward at every reading, so every entry has
// expired by the next query and every query misses.
type agingClock struct {
	vclock.Clock
	ns atomic.Int64
}

func (c *agingClock) Now() time.Time                  { return time.Unix(0, c.ns.Add(int64(ttl))) }
func (c *agingClock) Since(t time.Time) time.Duration { return 0 }

// runParallel16 runs body from 16 goroutines per core — the shape the
// acceptance criterion names (hot-hit throughput at 16 goroutines).
func runParallel16(b *testing.B, body func(i int)) {
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body(i)
			i++
		}
	})
}

// BenchmarkCSTranslateHot: one hot query, every call a cache hit.
func BenchmarkCSTranslateHot(b *testing.B) {
	s := benchServer(b, 1024, nil)
	if _, err := s.Translate("net!h0001!9fs"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	runParallel16(b, func(int) {
		if _, err := s.Translate("net!h0001!9fs"); err != nil {
			b.Fatal(err)
		}
	})
}

// A 512-query working set: a serving machine's realistic hot set. The
// cache (4096 entries) holds all of it.
func hotSet(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("net!h%04d!9fs", i)
	}
	return qs
}

func BenchmarkCSTranslateHotSet512(b *testing.B) {
	s := benchServer(b, 1024, nil)
	qs := hotSet(512)
	for _, q := range qs {
		if _, err := s.Translate(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	runParallel16(b, func(i int) {
		if _, err := s.Translate(qs[i&511]); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCSTranslateMissSingleflight: every query misses (the clock
// ages every entry past its TTL), so the measured path is compute +
// singleflight + store + eviction of the expired entries at capacity.
func BenchmarkCSTranslateMissSingleflight(b *testing.B) {
	s := benchServer(b, 4096, &agingClock{Clock: vclock.Real})
	qs := hotSet(4096)
	b.ReportAllocs()
	b.ResetTimer()
	runParallel16(b, func(i int) {
		if _, err := s.Translate(qs[i&4095]); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCSTranslateMixed: 90% hot hit, 10% rotating over 4096 cold
// queries, which miss once each and then fit — the boot-storm steady
// state.
func BenchmarkCSTranslateMixed(b *testing.B) {
	s := benchServer(b, 4096, nil)
	qs := hotSet(4096)
	hot := qs[:16]
	b.ReportAllocs()
	b.ResetTimer()
	runParallel16(b, func(i int) {
		q := hot[i&15]
		if i%10 == 9 {
			q = qs[(i*661)&4095]
		}
		if _, err := s.Translate(q); err != nil {
			b.Fatal(err)
		}
	})
}
