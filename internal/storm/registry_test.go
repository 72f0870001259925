package storm

import (
	"testing"
	"time"
)

// TestRegistryStormCompletes boots the t=0 dial storm — no stagger,
// every dialer walks CS by symbolic name — and checks the merged
// connection-server books close: every query landed in exactly one
// outcome column, and the latency histogram saw all of them.
func TestRegistryStormCompletes(t *testing.T) {
	res, err := RunRegistry(Config{
		Machines: 40,
		Sim:      8 * time.Second,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machines != 40 {
		t.Errorf("machines = %d, want 40", res.Machines)
	}
	if res.Calls < int64(res.Machines) {
		t.Errorf("%d calls across %d machines: the storm barely rained\n%s",
			res.Calls, res.Machines, res)
	}
	if res.Bytes == 0 {
		t.Errorf("no bytes echoed\n%s", res)
	}
	if res.CSQueries == 0 {
		t.Fatalf("no CS queries: the storm did not dial by name\n%s", res)
	}
	if got := res.CSHits + res.CSWaits + res.CSMisses + res.CSErrors; got != res.CSQueries {
		t.Errorf("CS books do not balance: %d queries != %d hits + %d waits + %d misses + %d errors\n%s",
			res.CSQueries, res.CSHits, res.CSWaits, res.CSMisses, res.CSErrors, res)
	}
	if res.CSNegHits == 0 {
		t.Errorf("no negative-cache hits: the dead-name queries were not cached\n%s", res)
	}
	if res.CSLat.Count != res.CSQueries {
		t.Errorf("latency histogram saw %d queries, counters saw %d\n%s",
			res.CSLat.Count, res.CSQueries, res)
	}
}

// TestRegistryStormDeterminism pins the acceptance criterion: the
// registry storm is byte-deterministic per seed — calls, retries, CS
// counters, and the merged latency histogram all agree across runs —
// and a different seed moves the numbers.
func TestRegistryStormDeterminism(t *testing.T) {
	cfg := Config{Machines: 60, Sim: 4 * time.Second, Seed: 7}
	r1, err := RunRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := r1.Wall, r2.Wall
	r1.Wall, r2.Wall = 0, 0
	if *r1 != *r2 {
		t.Errorf("same seed diverged:\nrun 1: %s\nrun 2: %s", r1, r2)
	}
	r1.Wall, r2.Wall = w1, w2

	cfg.Seed = 8
	r3, err := RunRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Bytes == r1.Bytes && r3.CSQueries == r1.CSQueries {
		t.Errorf("seed 7 and 8 agree byte for byte (%d bytes, %d queries): suspicious",
			r1.Bytes, r1.CSQueries)
	}
}
