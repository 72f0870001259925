package obs

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// The registry storm merges per-machine /net/cs histograms by parsing
// the rendered stats text back into snapshots; this pins the full
// round trip: Hist -> Group.Render -> ParseHistSnap -> Merge.
func TestParseHistSnapRoundTrip(t *testing.T) {
	var h Hist
	samples := []time.Duration{
		0, time.Nanosecond, 3 * time.Nanosecond,
		500 * time.Nanosecond, 8 * time.Microsecond,
		8 * time.Microsecond, 1500 * time.Microsecond,
		2 * time.Second, 20 * time.Second, // last lands past the top bucket
	}
	for _, d := range samples {
		h.Observe(d)
	}
	var hits atomic.Int64
	hits.Store(12)
	g := new(Group).
		AddAtomic("cache-hits", &hits).
		AddHist("lat", &h)
	text := g.Render()

	want := h.SnapshotHist()
	got := ParseHistSnap(text, "lat")
	if got.Count != want.Count || got.Buckets != want.Buckets {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v\ntext:\n%s", got, want, text)
	}
	// SumNs is recovered from the rendered average, which truncates:
	// it must land within Count nanoseconds of the truth.
	if diff := want.SumNs - got.SumNs; diff < 0 || diff > want.Count {
		t.Fatalf("SumNs recovered as %d, want within [%d-count, %d]",
			got.SumNs, want.SumNs, want.SumNs)
	}
	// And the scalar line is still visible to ParseStats alongside.
	if ParseStats(text)["cache-hits"] != 12 {
		t.Fatalf("cache-hits lost in render:\n%s", text)
	}
}

func TestParseHistSnapAbsentAndMalformed(t *testing.T) {
	var zero HistSnap
	// A stats file without the named histogram is the empty snapshot,
	// even when other histograms and counters are present.
	var h Hist
	h.Observe(time.Millisecond)
	text := "queries: 9\n" + h.Render("other")
	if got := ParseHistSnap(text, "lat"); got != zero {
		t.Fatalf("absent name parsed as %+v", got)
	}
	// Damaged lines are skipped, never fatal: a count line missing
	// " avg ", a non-numeric count, a bucket line with a non-numeric
	// value, and a bucket label no bucket owns.
	bad := strings.Join([]string{
		"lat: count 5",
		"lat: count five avg 1ms",
		"lat ≤1ms: many",
		"lat ≤17h: 3",
		"lat nolabel",
	}, "\n")
	if got := ParseHistSnap(bad, "lat"); got != zero {
		t.Fatalf("malformed lines parsed as %+v", got)
	}
	// A bad average still keeps the count (SumNs just stays 0).
	got := ParseHistSnap("lat: count 4 avg soon\n", "lat")
	if got.Count != 4 || got.SumNs != 0 {
		t.Fatalf("bad avg: %+v", got)
	}
}

func TestHistSnapMerge(t *testing.T) {
	var a, b Hist
	a.Observe(2 * time.Microsecond)
	a.Observe(3 * time.Millisecond)
	b.Observe(2 * time.Microsecond)

	sa, sb := a.SnapshotHist(), b.SnapshotHist()
	sum := sa
	sum.Merge(sb)
	if sum.Count != 3 || sum.SumNs != sa.SumNs+sb.SumNs {
		t.Fatalf("merge totals: %+v", sum)
	}
	for i := range sum.Buckets {
		if sum.Buckets[i] != sa.Buckets[i]+sb.Buckets[i] {
			t.Fatalf("bucket %d: %d + %d != %d",
				i, sa.Buckets[i], sb.Buckets[i], sum.Buckets[i])
		}
	}
	// Merging through the rendered form agrees with merging the truth
	// on everything but the rounded SumNs — the property the storm
	// report relies on.
	ra := ParseHistSnap(sa.Render("lat"), "lat")
	ra.Merge(ParseHistSnap(sb.Render("lat"), "lat"))
	if ra.Count != sum.Count || ra.Buckets != sum.Buckets {
		t.Fatalf("rendered merge diverged: %+v vs %+v", ra, sum)
	}
	if ra.Quantile(0.5) != sum.Quantile(0.5) || ra.Quantile(0.99) != sum.Quantile(0.99) {
		t.Fatalf("quantiles diverged after rendered merge")
	}
}

// A ring stamps by the clock it was enabled with: on a virtual clock
// an event's When is simulated time since Enable, which same-seed
// determinism depends on, and a second Enable starts a new epoch.
func TestRingStampsByItsClock(t *testing.T) {
	var r Ring
	v := vclock.NewVirtual()
	v.Run(func() {
		v.Sleep(time.Second)
		r.Enable(v)
		v.Sleep(250)
		r.Emit(EvSend, 1, 0)
		v.Sleep(750)
		r.Emit(EvSend, 2, 0)
		r.Enable(v)
		v.Sleep(time.Millisecond)
		r.Emit(EvSend, 3, 0)
	})
	var got []time.Duration
	for _, ev := range r.Events() {
		got = append(got, ev.When)
	}
	if want := []time.Duration{250, 1000, time.Millisecond}; !slices.Equal(got, want) {
		t.Fatalf("stamps %v, want %v", got, want)
	}
}
