package cs

import (
	"testing"

	"repro/internal/block"
)

// The cache-hit path is what every dial pays: one lock, one map read,
// no key string, no copied answer — so like the block pool and the obs
// primitives it is gated at zero allocations per hit. check.sh runs
// this without the race detector (whose instrumentation allocates).
func TestAllocsTranslateHit(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates; gated in check.sh without -race")
	}
	s := newServer(t, nil)
	if _, err := s.Translate("net!helix!9fs"); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(1000, func() {
		if _, err := s.Translate("net!helix!9fs"); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("cache-hit Translate allocates %.1f objects/op, want 0", got)
	}
	if s.Misses.Load() != 1 {
		t.Fatalf("misses=%d: the gate must measure hits only", s.Misses.Load())
	}
}
