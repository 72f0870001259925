package storm

import (
	"testing"
	"time"
)

// TestSmallGatewayStormCompletes drives a modest gateway storm and
// checks the multi-tenant machinery did the work: every tenant
// verified the shared file at least once, and the shared cache — not
// the backing tree — carried the fan-out.
func TestSmallGatewayStormCompletes(t *testing.T) {
	res, err := RunGateway(Config{
		Machines: 40,
		Sim:      20 * time.Second,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads < int64(res.Machines) {
		t.Errorf("%d reads across %d machines: the storm barely rained\n%s",
			res.Reads, res.Machines, res)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors on an unimpaired switch\n%s", res.Errors, res)
	}
	if res.Bytes != res.Reads*sharedSize {
		t.Errorf("bytes %d != reads %d * %d\n%s", res.Bytes, res.Reads, sharedSize, res)
	}
	if res.Conns < int64(res.Machines) {
		t.Errorf("gateway served %d conns for %d machines\n%s", res.Conns, res.Machines, res)
	}
	// The acceptance bar: a shared-read workload runs > 80% hits.
	if hr := res.HitRate(); hr <= 0.8 {
		t.Errorf("cache hit rate %.2f, want > 0.80\n%s", hr, res)
	}
}

// TestGatewayStormDeterminism pins the same-seed guarantee for the
// gateway scenario: two virtual runs agree read for read and — the
// stricter half — cache counter for cache counter, because the
// discrete-event scheduler serializes every tenant's every miss
// identically.
func TestGatewayStormDeterminism(t *testing.T) {
	cfg := Config{Machines: 40, Sim: 15 * time.Second, Seed: 11}
	r1, err := RunGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Reads != r2.Reads || r1.Errors != r2.Errors || r1.Bytes != r2.Bytes ||
		r1.Conns != r2.Conns || r1.CacheHits != r2.CacheHits || r1.CacheMisses != r2.CacheMisses {
		t.Errorf("same seed diverged:\nrun 1: %s\nrun 2: %s", r1, r2)
	}

	// A different seed shifts pacing, so the tallies move: the
	// identity above is the seed, not a constant.
	cfg.Seed = 12
	r3, err := RunGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Reads == r1.Reads && r3.CacheHits == r1.CacheHits {
		t.Errorf("seed 11 and 12 produced identical tallies (%d reads, %d hits): suspicious",
			r1.Reads, r1.CacheHits)
	}
}
