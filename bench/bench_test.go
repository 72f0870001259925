package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestDeterminism runs every workload at the test's scale: the same
// seed twice must repeat every op's simulated latency and every book
// exactly, another seed must not, and a traced run must see the system
// an untraced one does.
func TestDeterminism(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			run := func(seed int64, traced bool) *round {
				rd, err := runRound(wl, wl.tiny, seed, traced, "")
				if err != nil {
					t.Fatal(err)
				}
				if rd.Failed != 0 || len(rd.SimLatNs) == 0 {
					t.Fatalf("seed %d: %d of %d ops failed, %d verified: %v", seed, rd.Failed, rd.Attempted, len(rd.SimLatNs), rd.Errors)
				}
				return rd
			}
			a, b, other, traced := run(1, false), run(1, false), run(2, false), run(1, true)
			if digest(a, true) != digest(b, true) {
				t.Errorf("seed 1 twice: simulated figures or books differ")
				for k, v := range a.Stats {
					if b.Stats[k] != v && k != hostBook {
						t.Logf("  %s: %d then %d", k, v, b.Stats[k])
					}
				}
			}
			if digest(a, false) == digest(other, false) {
				t.Errorf("seeds 1 and 2 gave the same simulated figures")
			}
			if digest(a, false) != digest(traced, false) {
				t.Errorf("traced run differs from untraced: p50 %v vs %v ms over %d vs %d ops",
					simMetrics(traced)["op_sim_ms_p50"].Value, simMetrics(a)["op_sim_ms_p50"].Value,
					len(traced.SimLatNs), len(a.SimLatNs))
			}
			if wl.single && traced.Layer["budget.transport_sim_ms_per_op"] == 0 {
				t.Errorf("traced run has no simulated-time budget: %v", traced.Layer)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package
// and to the driver's rules for names, units and lines.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(describe(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatal(err)
	}
	w, _ := json.Marshal(want)
	g, _ := json.Marshal(got)
	if !bytes.Equal(w, g) {
		t.Errorf("BENCHMARK.json is not what `go run . -describe` prints")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloads {
		check(wl.name)
		if len(wl.why) > 200 || bytes.ContainsRune([]byte(wl.why), '\n') {
			t.Errorf("%s: why is not one line of at most 200 characters (%d)", wl.name, len(wl.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
}

// TestPartition checks the simulated-time budget on a hand-made op: an
// RPC outstanding from 10 to 90, its T blocked in the client until 20,
// resident in the server from 40 to 60, its R blocked there until 70.
func TestPartition(t *testing.T) {
	b, err := partition(
		[]interval{{0, 100}},
		[]interval{{10, 20}},         // send wait
		[]interval{{40, 60}},         // residency
		[]interval{{60, 70}},         // reply wait
		[]interval{{10, 90}, {5, 5}}, // outstanding, and an empty interval
	)
	if err != nil {
		t.Fatal(err)
	}
	want := simBudget{ops: 1, sendWait: 10, residency: 20, replyWait: 10, transport: 40, mountIdle: 20, total: 100}
	if *b != want {
		t.Errorf("budget %+v, want %+v", *b, want)
	}
}

// TestVerdict walks the four verdicts of -compare.
func TestVerdict(t *testing.T) {
	lower := metricDef{"m", "us", "lower", 0.10}
	higher := metricDef{"m", "1/s", "higher", 0.10}
	tight := func(v float64) sample { return sample{v, "us", 5, v * 0.99, v * 1.01} }
	loose := func(v float64) sample { return sample{v, "us", 5, v * 0.85, v * 1.15} }
	for _, c := range []struct {
		d    metricDef
		a, b sample
		want string
	}{
		{lower, tight(100), tight(105), "unchanged"},
		{lower, tight(100), tight(120), "regressed"},
		{lower, tight(100), tight(80), "improved"},
		{higher, tight(100), tight(80), "regressed"},
		{lower, loose(100), loose(120), "unresolved"},
		{lower, loose(100), loose(150), "regressed"},
		{metricDef{"layer", "ns", "lower", 0}, tight(100), tight(200), "-"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Better, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestEveryLayerMetricIsEmitted runs the probes and one traced round
// and checks that between them they produce every per-layer metric
// BENCHMARK.json names, and nothing it does not.
func TestEveryLayerMetricIsEmitted(t *testing.T) {
	wl := workloadNamed("gateway-relay")
	rd, err := runRound(wl, wl.tiny, 1, true, "")
	if err != nil {
		t.Fatal(err)
	}
	got := statLayers(rd, profiles(1, wl.wan).Ether.Bandwidth)
	for k, v := range rd.Layer {
		got[k] = v
	}
	probes, err := runProbes(1)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range probes {
		got[k] = v
	}
	want := map[string]bool{}
	for _, d := range perLayer {
		want[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s is declared and never emitted", d.Name)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s is emitted and not declared", k)
		}
	}
}
