package storm

import (
	"testing"
	"time"
)

// TestSmallStormCompletes boots a modest world on the virtual clock
// and checks the storm actually exercised it: every machine got
// through at least one verified registry call in the simulated window.
func TestSmallStormCompletes(t *testing.T) {
	res, err := Run(Config{
		Machines: 40,
		Sim:      20 * time.Second,
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
	if res.Errors != 0 {
		t.Errorf("%d errors on an unimpaired switch\n%s", res.Errors, res)
	}
	if res.Bytes == 0 {
		t.Errorf("no bytes echoed\n%s", res)
	}
	if res.Simulated != 20*time.Second {
		t.Errorf("simulated %v, want 20s", res.Simulated)
	}
}

// TestStormDeterminism is the storm-scale half of the same-seed
// guarantee: two runs of the same virtual world agree call for call
// and byte for byte, because the discrete-event scheduler serializes
// every machine's every decision identically.
func TestStormDeterminism(t *testing.T) {
	cfg := Config{Machines: 60, Sim: 15 * time.Second, Seed: 11}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Calls != r2.Calls || r1.Errors != r2.Errors || r1.Bytes != r2.Bytes {
		t.Errorf("same seed diverged:\nrun 1: %s\nrun 2: %s", r1, r2)
	}

	// A different seed shifts pacing and payload sizes, so the byte
	// count moves: the identity above is the seed, not a constant.
	cfg.Seed = 12
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Bytes == r1.Bytes {
		t.Errorf("seed 11 and 12 echoed identical byte counts (%d): suspicious", r1.Bytes)
	}
}
