// Command bench is the repository's benchmark: five workloads on the
// virtual clock, reported as exact simulated time and as the host cost
// of simulating it, plus a traced run that puts a number against every
// layer. README.md says what each workload and metric is for.
//
//	go run . -workload wan-read -seed 1 -seconds 10 -trace 0   one workload, as the driver runs it
//	go run .                                                    all five, end-to-end metrics
//	go run . -trace 1                                           all five, per-layer metrics and budgets
//	go run . -out run.json                                      also write every sample to a file
//	go run . -compare a.json b.json                             diff two such files
//
// Every round of a workload runs in a fresh process of this binary
// (-round), because workloads sharing a process were seen to move each
// other's host figures by 15 %.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/vclock"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the result as one JSON line; default all")
		seed    = flag.Int64("seed", 1, "derives payloads, file and target choice, stagger, think times and the media's speed")
		seconds = flag.Float64("seconds", runSeconds, "timed host seconds to gather per workload, in whole rounds of fixed work")
		trace   = flag.Int("trace", 0, "1: run once untraced and once traced, report the per-layer metrics")
		out     = flag.String("out", "", "write every metric with its spread to this file")
		compare = flag.Bool("compare", false, "compare the two -out files named as arguments")
		spans   = flag.String("spans", "", "with -trace 1 and -workload: write the traced run's spans to this file")
		child   = flag.String("round", "", "internal: run one round (plain or traced) or the probes, print it as JSON")
		decl    = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	switch {
	case *decl:
		os.Stdout.Write(describe())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *child != "":
		if err := runChild(*child, *name, *seed, *spans); err != nil {
			fatal(err)
		}
	default:
		if !run(*name, *seed, *seconds, *trace == 1, *out, *spans) {
			os.Exit(1)
		}
	}
}

// runSeconds is the run length BENCHMARK.json asks the driver for: five
// to seven rounds of every workload.
const runSeconds = 10

// roundProcs is the GOMAXPROCS of a round. The virtual clock lets one
// machine goroutine run at a time, and with a second P idle every
// hand-off between them first wakes it through the kernel, which on a
// shared VM is the least repeatable thing the process does: on two Ps
// the same rounds cost 14 % more and spread two to four times as wide
// (README, A/A).
const roundProcs = 1

// describe renders BENCHMARK.json from the tables in this package.
func describe() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wls []named
	for _, wl := range workloads {
		wls = append(wls, named{wl.name, wl.why})
	}
	var layers []layerDef
	for _, d := range perLayer {
		layers = append(layers, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	return append(b, '\n')
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runChild is the far side of spawn.
func runChild(kind, name string, seed int64, spans string) error {
	runtime.GOMAXPROCS(roundProcs)
	var v any
	if kind == "probes" {
		m, err := runProbes(seed)
		if err != nil {
			return err
		}
		v = m
	} else {
		wl := workloadNamed(name)
		if wl == nil {
			return fmt.Errorf("no workload %q", name)
		}
		rd, err := runRound(wl, wl.size, seed, kind == "traced", spans)
		if err != nil {
			return err
		}
		rd.PeakRSSMB = peakRSSMB()
		v = rd
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

// runRound runs one set-up and one timed window of wl on a fresh
// virtual clock.
func runRound(wl *workload, size sizing, seed int64, traced bool, spans string) (*round, error) {
	v := vclock.NewVirtual()
	e := &env{ck: v, wl: wl, seed: seed, size: size, byID: map[int]*tenant{},
		res: &round{Workload: wl.name, Seed: seed, Traced: traced}}
	if traced {
		e.tr = newTracer(v)
	}
	var err error
	v.Run(func() { err = wl.run(e) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if traced {
		st, err := e.tr.analyze(int64(e.from.Sub(vclock.Epoch)), int64(e.from.Sub(vclock.Epoch))+e.res.SimWindowNs, wl.single)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		e.res.Layer = spanLayers(st, e.res)
		e.res.Layer["exportfs.tenant_lat_p99_over_p50"] = e.tenantSpread()
		if spans != "" {
			if err := e.tr.writeSpans(spans, wl.name); err != nil {
				return nil, err
			}
		}
	}
	return e.res, nil
}

// spawn runs one child of this binary and decodes what it prints.
func spawn(v any, kind, name string, seed int64, spans string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-round", kind, "-workload", name, "-seed", fmt.Sprint(seed), "-spans", spans)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s round of %s: %w", kind, name, err)
	}
	return json.Unmarshal(b, v)
}

// result is one workload's merged rounds.
type result struct {
	Workload  string            `json:"workload"`
	Rounds    int               `json:"rounds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	OpBytes   int               `json:"op_bytes"`
	Metrics   map[string]sample `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"` // why the run is not correct
	layer     map[string]float64
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// measure gathers at least seconds of timed host time for wl in whole
// rounds and merges them.
func measure(wl *workload, seed int64, seconds float64) (*result, error) {
	var rounds []*round
	for timed := 0.0; len(rounds) == 0 || timed < seconds; {
		rd := &round{}
		if err := spawn(rd, "plain", wl.name, seed, ""); err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
		for _, us := range rd.BatchUs {
			timed += us / 1e6
		}
	}
	return merge(rounds), nil
}

// merge folds rounds of one workload and seed. The simulated figures
// come from the first and must be the same in all. Set-up time, the
// allocation count and the memory peak are the medians of the rounds'.
// The host cost of an op is taken batch by batch: rounds of one seed do
// identical work in batch k, a shared host only ever adds time to it,
// so the run's figure is every batch's quietest time over the rounds,
// summed, per op. The rounds' own totals are kept as its spread.
func merge(rounds []*round) *result {
	first := rounds[0]
	res := &result{Workload: first.Workload, Rounds: len(rounds), OpBytes: first.OpBytes, Metrics: simMetrics(first)}
	var host, allocs, rss, setup []float64
	quietest := append([]float64(nil), first.BatchUs...)
	for _, rd := range rounds {
		res.Attempted += rd.Attempted
		res.Failed += rd.Failed
		for _, e := range rd.Errors {
			res.Problems = append(res.Problems, "failed op: "+e)
		}
		if digest(rd, true) != digest(first, true) {
			res.Problems = append(res.Problems, "two rounds of one seed differ in simulated figures or books: the run is not deterministic")
		}
		host = append(host, rd.hostUsPerOp())
		for k := range quietest {
			if k < len(rd.BatchUs) {
				quietest[k] = min(quietest[k], rd.BatchUs[k])
			}
		}
		allocs = append(allocs, rd.AllocsPerOp)
		rss = append(rss, rd.PeakRSSMB)
		setup = append(setup, rd.SetupS)
	}
	if len(first.SimLatNs) == 0 {
		res.Problems = append(res.Problems, "no operation completed")
	}
	res.Metrics["setup_s"] = sampleOf("s", setup)
	cost := sampleOf("us", host)
	cost.Value = 0
	for _, us := range quietest {
		cost.Value += ratio(us, float64(len(first.SimLatNs)))
	}
	res.Metrics["host_us_per_op"] = cost
	res.Metrics["host_allocs_per_op"] = sampleOf("count", allocs)
	res.Metrics["peak_rss_mb"] = sampleOf("MB", rss)
	return res
}

// measureTraced runs wl once plain and once traced and reports the
// per-layer metrics. The two runs must agree on every simulated figure:
// the wrappers read clocks and append, so a difference means the trace
// is of another system.
func measureTraced(wl *workload, seed int64, probes map[string]float64, spans string) (*result, error) {
	plain, traced := &round{}, &round{}
	if err := spawn(plain, "plain", wl.name, seed, ""); err != nil {
		return nil, err
	}
	if err := spawn(traced, "traced", wl.name, seed, spans); err != nil {
		return nil, err
	}
	res := merge([]*round{plain})
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	if digest(plain, false) != digest(traced, false) {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"traced and untraced runs differ in simulated figures (p50 %v vs %v ms over %d vs %d ops): the wrappers moved the system",
			simMetrics(traced)["op_sim_ms_p50"].Value, simMetrics(plain)["op_sim_ms_p50"].Value, len(traced.SimLatNs), len(plain.SimLatNs)))
	}
	res.layer = statLayers(traced, profiles(seed, wl.wan).Ether.Bandwidth)
	for k, v := range traced.Layer {
		res.layer[k] = v
	}
	for k, v := range probes {
		res.layer[k] = v
	}
	res.Metrics["trace_overhead_us_per_op"] = exact("us", traced.hostUsPerOp()-plain.hostUsPerOp(), 1)
	return res, nil
}

// run is the parent: it measures the named workload, or all of them,
// prints the tables, and reports whether everything was correct.
func run(name string, seed int64, seconds float64, traced bool, out, spans string) bool {
	wls := workloads
	if name != "" {
		wl := workloadNamed(name)
		if wl == nil {
			fatal(fmt.Errorf("no workload %q", name))
		}
		wls = []*workload{wl}
	}
	var probes map[string]float64
	if traced {
		if err := spawn(&probes, "probes", "", seed, ""); err != nil {
			fatal(err)
		}
	}
	ok := true
	var results []*result
	for _, wl := range wls {
		var res *result
		var err error
		if traced {
			res, err = measureTraced(wl, seed, probes, spans)
		} else {
			res, err = measure(wl, seed, seconds)
		}
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, wl, res)
		ok = ok && res.correct()
		results = append(results, res)
	}
	if out != "" {
		if err := writeRun(out, seed, seconds, results); err != nil {
			fatal(err)
		}
	}
	if name != "" {
		printDriverLine(os.Stdout, results[0], traced)
	}
	return ok
}

// printDriverLine ends the run with the one JSON object the driver
// reads: the end-to-end metrics, or with -trace 1 the per-layer ones.
func printDriverLine(w *os.File, res *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{res.layer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func printResult(w *os.File, wl *workload, res *result) {
	fmt.Fprintf(w, "== %s: %d round(s), %d ops attempted, %d failed\n", wl.name, res.Rounds, res.Attempted, res.Failed)
	fmt.Fprintf(w, "  %-24s %14s %-6s %7s %14s %14s\n", "metric", "median", "unit", "n", "q1", "q3")
	for _, d := range endToEnd {
		s := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-24s %14.4f %-6s %7d %14.4f %14.4f\n", d.Name, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	opsPerS, hostUs := res.Metrics["ops_per_sim_s"].Value, res.Metrics["host_us_per_op"].Value
	fmt.Fprintf(w, "  derived: %.3f MB/s simulated at %d bytes per op; %.3f host seconds per simulated second\n",
		opsPerS*float64(res.OpBytes)/1e6, res.OpBytes, hostUs*opsPerS/1e6)
	if res.layer != nil {
		fmt.Fprintf(w, "  tracing overhead: %+.1f us per op on %.1f\n", res.Metrics["trace_overhead_us_per_op"].Value, hostUs)
		fmt.Fprintf(w, "  per-layer:\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-40s %14.4f %s\n", d.Name, res.layer[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "  host budget, estimated from unit costs and counts, of %.1f us per op:\n%s", hostUs, hostBudget(res.layer, hostUs))
		if wl.single {
			fmt.Fprintf(w, "  simulated-time budget per op (parts sum to the op exactly):\n")
			total := 0.0
			for _, part := range []string{"send_wait", "srv_residency", "reply_wait", "transport", "mount_idle"} {
				v := res.layer["budget."+part+"_sim_ms_per_op"]
				total += v
				fmt.Fprintf(w, "    %-14s %10.4f ms\n", part, v)
			}
			fmt.Fprintf(w, "    %-14s %10.4f ms\n", "op, mean", total)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  NOT CORRECT: %s\n", p)
	}
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Nproc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Results    []*result `json:"results"`
}

func writeRun(path string, seed int64, seconds float64, results []*result) error {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	for _, r := range results {
		for _, d := range perLayer {
			if v, ok := r.layer[d.Name]; ok {
				r.Metrics[d.Name] = exact(d.Unit, v, 1)
			}
		}
	}
	b, err := json.MarshalIndent(runFile{runtime.NumCPU(), roundProcs, runtime.Version(), commit, seed, seconds, results}, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareFiles prints one row per metric and workload: both medians,
// the change, the bound, and a verdict that knows the runs' own noise.
func compareFiles(w *os.File, pathA, pathB string) error {
	var a, b runFile
	for _, f := range []struct {
		path string
		into *runFile
	}{{pathA, &a}, {pathB, &b}} {
		text, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(text, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %s  nproc %d\n", pathA, a.Commit, a.Seed, a.Go, a.Nproc)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  %s  nproc %d\n", pathB, b.Commit, b.Seed, b.Go, b.Nproc)
	fmt.Fprintf(w, "%-14s %-36s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			continue
		}
		for _, d := range defs {
			sa, okA := ra.Metrics[d.Name]
			sb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-14s %-36s %14.4f %14.4f %+8.2f%% %7s  %s\n",
				ra.Workload, d.Name, sa.Value, sb.Value, 100*ratio(sb.Value-sa.Value, sa.Value), bound, verdict(d, sa, sb))
		}
	}
	return nil
}

// verdict is improved, unchanged or regressed against the metric's
// bound — and unresolved when the runs' own spread, the distance
// between the quartiles as a share of the median, is wider than the
// bound and the change does not clear it. Per-layer metrics have no
// bound and get no verdict.
func verdict(d metricDef, a, b sample) string {
	if d.Bound == 0 {
		return "-"
	}
	worse := ratio(b.Value-a.Value, a.Value)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(a.Q3-a.Q1, a.Value), ratio(b.Q3-b.Q1, b.Value))
	switch limit := max(d.Bound, spread); {
	case worse > limit:
		return "regressed"
	case -worse > limit:
		return "improved"
	case spread > d.Bound:
		return "unresolved"
	}
	return "unchanged"
}
