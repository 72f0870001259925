package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// procStart is as close to process start as Go code gets; setup_s
// runs from here to the first timed op.
var procStart = time.Now() //netvet:ignore realtime host set-up time

// batches is how many equal slices a timed window is cut into: of ops
// for one client, of simulated time for many. Batch k holds the same
// work in every round of a seed, which is what lets merge pick each
// batch's quietest round.
const batches = 40

// sizing is the fixed amount of work one round does. A round is never
// a stopwatch: the same sizing gives the same simulated figures on any
// machine and at any commit.
type sizing struct {
	warm    int           // single-client: warm-up ops before the window
	ops     int           // single-client: timed ops
	lead    time.Duration // multi-client: simulated run-in before the window
	window  time.Duration // multi-client: timed simulated window
	clients int           // multi-client: tenants, or clients on each network
}

// round is what one fresh process measured: one set-up and one timed
// window of a workload. The parent merges rounds; see merge.
type round struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	SetupS    float64  `json:"setup_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"` // the first few failures, for the report

	// Simulated figures, exact per seed and sizing.
	SimLatNs    []int64 `json:"sim_lat_ns"`    // one per verified op, in completion order
	SimWindowNs int64   `json:"sim_window_ns"` // length of the timed window
	OpBytes     int     `json:"op_bytes"`      // payload bytes one op moves

	// Host figures.
	BatchUs     []float64 `json:"batch_us"` // host µs each batch took
	AllocsPerOp float64   `json:"allocs_per_op"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`

	Stats map[string]int64   `json:"stats"`           // [stat] deltas over the window
	Layer map[string]float64 `json:"layer,omitempty"` // [span] figures, traced rounds only
}

// env is what a workload runs in.
type env struct {
	ck   vclock.Clock
	wl   *workload
	seed int64
	size sizing
	rig  *rig // set by the workload once its world is up; stats read it
	tr   *tracer
	res  *round

	mu     sync.Mutex // the recording below, from client goroutines
	opened bool
	from   time.Time // window start, simulated
	to     time.Time // window end, simulated; zero when the window ends with its last op
	byID   map[int]*tenant

	m0     runtime.MemStats
	stats0 map[string]int64
	mark   time.Time // host time of the last batch boundary
}

// tenant is one client's verified ops in the window.
type tenant struct{ ops, ns int64 }

// open starts the timed window: everything before it was set-up.
func (e *env) open() {
	e.stats0 = e.rig.snapshot()
	runtime.GC()
	runtime.ReadMemStats(&e.m0)
	e.mu.Lock()
	e.opened, e.from = true, e.ck.Now()
	e.mu.Unlock()
	e.res.SetupS = time.Since(procStart).Seconds() //netvet:ignore realtime host set-up time
	e.mark = time.Now()                            //netvet:ignore realtime host cost per batch
}

// batch closes one host-time slice.
func (e *env) batch() {
	now := time.Now() //netvet:ignore realtime host cost per batch
	e.res.BatchUs = append(e.res.BatchUs, float64(now.Sub(e.mark).Nanoseconds())/1e3)
	e.mark = now
}

// close ends the timed window.
func (e *env) close() {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	e.res.SimWindowNs = int64(e.ck.Since(e.from))
	if n := len(e.res.SimLatNs); n > 0 {
		e.res.AllocsPerOp = float64(m1.Mallocs-e.m0.Mallocs) / float64(n)
	}
	e.res.Stats = map[string]int64{}
	for k, v := range e.rig.snapshot() {
		if isGauge(k) {
			e.res.Stats[k] = v
		} else {
			e.res.Stats[k] = v - e.stats0[k]
		}
	}
}

// record books one op that began at start (simulated). Ops outside the
// window — begun in the run-in, or finished after the end — are not
// part of the run.
func (e *env) record(id int, start time.Time, err error) {
	now := e.ck.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.opened || start.Before(e.from) || (!e.to.IsZero() && now.After(e.to)) {
		return
	}
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
		if len(e.res.Errors) < 5 {
			e.res.Errors = append(e.res.Errors, err.Error())
		}
		return
	}
	e.res.SimLatNs = append(e.res.SimLatNs, int64(now.Sub(start)))
	if e.byID[id] == nil {
		e.byID[id] = &tenant{}
	}
	e.byID[id].ops++
	e.byID[id].ns += int64(now.Sub(start))
}

// tenantSpread is the fairness figure: the 99th-percentile client over
// the median client, by mean op latency in the window.
func (e *env) tenantSpread() float64 {
	var means []int64
	for _, t := range e.byID {
		means = append(means, t.ns/t.ops)
	}
	means = sortedCopy(means)
	return ratio(float64(rank(means, 0.99)), float64(rank(means, 0.50)))
}

// runOps is the single-client window: warm ops, then size.ops timed
// ones, which must divide into the batches evenly.
func (e *env) runOps(op func(i int) error) error {
	for i := 0; i < e.size.warm; i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	per := e.size.ops / batches
	if per*batches != e.size.ops {
		return fmt.Errorf("%d ops do not cut into %d equal batches", e.size.ops, batches)
	}
	e.open()
	for i := 0; i < e.size.ops; i++ {
		if i > 0 && i%per == 0 {
			e.batch()
		}
		a := e.tr.beginOp(0, i)
		start := e.ck.Now()
		err := op(e.size.warm + i)
		e.record(0, start, err)
		e.tr.endOp(0, a)
	}
	e.batch()
	e.close()
	return nil
}

// runClients is the multi-client window. Each client loops until
// told to stop; the window is the size.window of simulated time that
// follows the size.lead run-in, cut into batches slices of
// simulated time.
func (e *env) runClients(n int, client func(id int, running func() bool)) {
	start := e.ck.Now()
	end := start.Add(e.size.lead + e.size.window)
	running := func() bool { return e.ck.Now().Before(end) }
	wg := vclock.NewWaitGroup(e.ck)
	for id := 0; id < n; id++ {
		wg.Add(1)
		e.ck.Go(func() {
			defer wg.Done()
			client(id, running)
		})
	}
	e.ck.SleepUntil(start.Add(e.size.lead))
	e.mu.Lock()
	e.to = end
	e.mu.Unlock()
	e.open()
	for k := 1; k <= batches; k++ {
		e.ck.SleepUntil(e.from.Add(e.size.window * time.Duration(k) / batches))
		e.batch()
	}
	e.close()
	wg.Wait()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q'th quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sample is a metric's value with the spread it was taken from.
type sample struct {
	Value float64 `json:"value"` // the median
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind it
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func sampleOf(unit string, values []float64) sample {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sample{quantile(s, 0.5), unit, len(s), quantile(s, 0.25), quantile(s, 0.75)}
}

func exact(unit string, v float64, n int) sample { return sample{v, unit, n, v, v} }

// hostUsPerOp is the round's own host time per op, noise and all.
func (rd *round) hostUsPerOp() float64 {
	total := 0.0
	for _, us := range rd.BatchUs {
		total += us
	}
	return ratio(total, float64(len(rd.SimLatNs)))
}
