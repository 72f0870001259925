package storm

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestReportsPinned holds one small same-seed report per scenario
// against the text an earlier commit printed. The determinism tests
// compare two runs of one binary; this is the other half — a change to
// the harness (boot order, spawn order, a seed stride, one rng draw
// moved) shows up here as a different number. The strings were
// captured before the three runners were folded onto one harness and
// must not be regenerated to make a refactor pass.
func TestReportsPinned(t *testing.T) {
	cfg := Config{Machines: 24, Sim: 6 * time.Second, Seed: 3}
	for _, tc := range []struct {
		name string
		run  func() (fmt.Stringer, error)
		want string
	}{
		{"storm", func() (fmt.Stringer, error) { return Run(cfg) },
			"storm: 24 machines, 193 calls (0 errors), 30675 bytes echoed, simulated 6s"},
		{"gateway", func() (fmt.Stringer, error) { return RunGateway(cfg) },
			"gateway storm: 24 machines, 167 reads (0 errors), 10944512 bytes, 167 conns, cache 1836/1848 hits (99.4%), simulated 6s"},
		{"registry", func() (fmt.Stringer, error) { return RunRegistry(cfg) },
			"registry storm: 24 machines, 612 calls (64 retries, 2 errors), 99527 bytes echoed; cs 730 queries (682 hits, 28 neg, 0 waits, 25 misses, 23 errors, 0 evictions) p50 1ns p99 1ns, simulated 6s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			// The tail is the wall-clock half of the report.
			got, _, _ := strings.Cut(res.String(), " in ")
			if got != tc.want {
				t.Errorf("report moved:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}
