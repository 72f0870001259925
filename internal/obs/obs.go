// Package obs is the observability core behind the paper's diagnostic
// story: "every aspect of a network is a file", so a machine — or a
// remote machine that has imported this one's /net (§6.1) — watches
// the system by reading stats and trace files out of the protocol
// device trees. The package supplies the three primitives those files
// render:
//
//   - Counter: a cache-line-padded monotonic counter, the same shape
//     as the block allocator's Snapshot counters. Protocol engines
//     bump them on the hot path; a Group names a set of them and
//     renders the ASCII "name: value" stats file.
//   - Hist: a log2-bucket latency histogram (RTT samples, 9P RPC
//     latency). Observe is two atomic adds; rendering walks the
//     buckets.
//   - Ring: a fixed-size, lock-free per-conversation event ring for
//     trace files. Emit when disabled is one atomic load; enabled it
//     is a handful of atomic stores and never allocates, so tracing
//     can be armed on a live conversation without disturbing it.
//
// Everything here is allocation-free when idle and deterministic: no
// random draws, no background goroutines — replaying a torture
// scenario replays its event sequence.
package obs

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is an atomic monotonic counter padded to a cache line, so a
// row of them hammered from both ends of a link does not ping-pong one
// line between cores (the block allocator's counter, exported).
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Watermark tracks a high-water mark (window occupancy, queue depth).
type Watermark struct {
	v atomic.Int64
	_ [56]byte
}

// Note records v if it exceeds the mark.
func (w *Watermark) Note(v int64) {
	for {
		cur := w.v.Load()
		if v <= cur || w.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (w *Watermark) Load() int64 { return w.v.Load() }

// Group is an ordered set of named int64 sources rendered as a stats
// file, one "name: value" line each. Registration happens at device
// construction; Render may be called concurrently with the sources
// being bumped (values are point reads, the file is a snapshot in the
// block.Snapshot sense).
type Group struct {
	names []string
	loads []func() int64
	hists []histEntry
}

type histEntry struct {
	name string
	h    *Hist
}

// Add registers a named value source.
func (g *Group) Add(name string, load func() int64) *Group {
	g.names = append(g.names, name)
	g.loads = append(g.loads, load)
	return g
}

// AddCounter registers a Counter.
func (g *Group) AddCounter(name string, c *Counter) *Group {
	return g.Add(name, c.Load)
}

// AddAtomic registers a bare atomic counter (the protocol engines'
// existing exported fields).
func (g *Group) AddAtomic(name string, v *atomic.Int64) *Group {
	return g.Add(name, v.Load)
}

// AddHist registers a histogram, rendered after the scalar lines.
func (g *Group) AddHist(name string, h *Hist) *Group {
	g.hists = append(g.hists, histEntry{name: name, h: h})
	return g
}

// Render formats the stats file.
func (g *Group) Render() string {
	var b strings.Builder
	for i, name := range g.names {
		fmt.Fprintf(&b, "%s: %d\n", name, g.loads[i]())
	}
	for _, he := range g.hists {
		b.WriteString(he.h.Render(he.name))
	}
	return b.String()
}

// Snapshot returns the scalar values by name (tests and netstat).
func (g *Group) Snapshot() map[string]int64 {
	m := make(map[string]int64, len(g.names))
	for i, name := range g.names {
		m[name] = g.loads[i]()
	}
	return m
}

// ParseStats parses the "name: value" lines of a stats file into a
// map, skipping lines in any other shape (per-conversation summaries,
// histogram lines). This is how the conformance suite and netstat read
// a stats file back without trusting the renderer.
func ParseStats(text string) map[string]int64 {
	m := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok || name == "" || strings.Contains(name, " ") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		m[name] = n
	}
	return m
}

// ParseHistSnap reconstructs a histogram snapshot from the lines
// Hist.Render(name) wrote into a stats file — the inverse ParseStats
// skips. Bucket lines are matched by their BucketLabel; SumNs is
// recovered from the rendered average (rounded to the duration-format
// precision, close enough for merged quantiles). A stats file without
// the named histogram parses as the empty snapshot.
func ParseHistSnap(text, name string) HistSnap {
	var s HistSnap
	countPrefix := name + ": count "
	bucketPrefix := name + " "
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, countPrefix); ok {
			cstr, avgstr, ok := strings.Cut(rest, " avg ")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(cstr, 10, 64)
			if err != nil {
				continue
			}
			s.Count = n
			if avg, err := time.ParseDuration(avgstr); err == nil {
				s.SumNs = n * avg.Nanoseconds()
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, bucketPrefix); ok {
			label, val, ok := strings.Cut(rest, ": ")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				continue
			}
			for i := 0; i < NHistBuckets; i++ {
				if BucketLabel(i) == label {
					s.Buckets[i] = n
					break
				}
			}
		}
	}
	return s
}

// NHistBuckets is the number of log2 latency buckets: bucket k counts
// observations with 2^(k-1) ns < d <= 2^k - 1 ns (bucket 0 is <= 1ns),
// covering up to ~9s in bucket 33 and everything longer in the last.
const NHistBuckets = 34

// Hist is a log2-bucket latency histogram. Observe is two atomic adds
// on the hot path; Render and SnapshotHist walk the buckets.
type Hist struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [NHistBuckets]atomic.Int64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	b := bits.Len64(ns) // 0 for 0, k for 2^(k-1) <= ns < 2^k
	if b >= NHistBuckets {
		b = NHistBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.buckets[bucketFor(d)].Add(1)
}

// HistSnap is a consistent-enough snapshot of a histogram (point reads
// while traffic moves may be off by the samples in progress).
type HistSnap struct {
	Count   int64
	SumNs   int64
	Buckets [NHistBuckets]int64
}

// SnapshotHist returns the current counts.
func (h *Hist) SnapshotHist() HistSnap {
	var s HistSnap
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// BucketLabel names a bucket by its upper bound: "≤64µs" style, using
// Go duration formatting of 2^k-1 rounded up to 2^k ns.
func BucketLabel(i int) string {
	if i == NHistBuckets-1 {
		return ">" + time.Duration(1<<(NHistBuckets-2)).String()
	}
	return "≤" + time.Duration(uint64(1)<<uint(i)).String()
}

// Render formats the histogram as stats-file lines:
//
//	name: count 12 avg 1.5ms
//	name ≤1ms: 7
//	name ≤2ms: 5
//
// Only occupied buckets render, so an idle histogram is two words.
func (h *Hist) Render(name string) string {
	return h.SnapshotHist().Render(name)
}

// Merge accumulates another snapshot (summing several histograms, as
// a machine-wide stats file does over per-client ones).
func (s *HistSnap) Merge(o HistSnap) {
	s.Count += o.Count
	s.SumNs += o.SumNs
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the upper bound of the bucket holding the q'th
// quantile observation (0 < q <= 1) — a log2-granular percentile, the
// resolution the histogram actually has. An empty snapshot returns 0.
func (s HistSnap) Quantile(q float64) time.Duration {
	if s.Count <= 0 {
		return 0
	}
	want := int64(q * float64(s.Count))
	if want < 1 {
		want = 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= want {
			if i == NHistBuckets-1 {
				return time.Duration(1 << (NHistBuckets - 2))
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(1 << (NHistBuckets - 2))
}

// Render formats the snapshot in the Hist.Render file shape.
func (s HistSnap) Render(name string) string {
	var b strings.Builder
	avg := time.Duration(0)
	if s.Count > 0 {
		avg = time.Duration(s.SumNs / s.Count)
	}
	fmt.Fprintf(&b, "%s: count %d avg %s\n", name, s.Count, avg)
	for i, n := range s.Buckets {
		if n > 0 {
			fmt.Fprintf(&b, "%s %s: %d\n", name, BucketLabel(i), n)
		}
	}
	return b.String()
}
