package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestWatermark(t *testing.T) {
	var w Watermark
	w.Note(5)
	w.Note(3)
	if got := w.Load(); got != 5 {
		t.Fatalf("watermark = %d, want 5", got)
	}
	w.Note(9)
	if got := w.Load(); got != 9 {
		t.Fatalf("watermark = %d, want 9", got)
	}
}

func TestGroupRenderAndParse(t *testing.T) {
	var retrans atomic.Int64
	retrans.Add(7)
	g := new(Group).
		AddAtomic("retransmits", &retrans).
		Add("msgs", func() int64 { return 100 })
	text := g.Render()
	if !strings.Contains(text, "retransmits: 7\n") || !strings.Contains(text, "msgs: 100\n") {
		t.Fatalf("render:\n%s", text)
	}
	// A stats file mixes counter lines with per-conversation summary
	// lines and histogram lines; ParseStats keeps only the counters.
	text = "tcp/0 Established 1.2.3.4!80 5.6.7.8!999\n" + text + "rtt: count 3 avg 1ms\nrtt ≤1ms: 3\n"
	m := ParseStats(text)
	if m["retransmits"] != 7 || m["msgs"] != 100 {
		t.Fatalf("parse = %v", m)
	}
	if _, ok := m["rtt"]; ok {
		t.Fatalf("histogram summary parsed as a counter: %v", m)
	}
	if len(m) != 2 {
		t.Fatalf("parse picked up stray lines: %v", m)
	}
	snap := g.Snapshot()
	if snap["retransmits"] != 7 || snap["msgs"] != 100 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{-5, 0},
		{time.Hour, NHistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.bucket {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.bucket)
		}
	}
	var h Hist
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	s := h.SnapshotHist()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNs != 5*time.Millisecond.Nanoseconds() {
		t.Fatalf("sum = %d", s.SumNs)
	}
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total != 3 {
		t.Fatalf("bucket total = %d", total)
	}
	text := h.Render("rtt")
	if !strings.Contains(text, "rtt: count 3 avg 1.666666ms") {
		t.Fatalf("render:\n%s", text)
	}
	// Only occupied buckets render.
	if got := strings.Count(text, "\n"); got != 3 {
		t.Fatalf("render has %d lines, want 3:\n%s", got, text)
	}
}

func TestHistQuantile(t *testing.T) {
	var empty HistSnap
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// 90 observations in the 1µs bucket, 10 in the 1ms bucket: the
	// median sits in the fast bucket, the p99 in the slow one. Bucket
	// k holds [2^(k-1), 2^k), so the returned upper bound is 2^k ns.
	var h Hist
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.SnapshotHist()
	p50 := s.Quantile(0.50)
	p99 := s.Quantile(0.99)
	if p50 >= time.Millisecond || p99 < time.Millisecond {
		t.Errorf("p50 %v p99 %v: want p50 in the µs bucket, p99 in the ms bucket", p50, p99)
	}
	if p50 != time.Duration(1<<uint(bucketFor(time.Microsecond))) {
		t.Errorf("p50 %v is not its bucket's upper bound", p50)
	}
	// A quantile so small it rounds below one observation still
	// answers from the first occupied bucket.
	if got := s.Quantile(0.0001); got != p50 {
		t.Errorf("tiny quantile = %v, want first bucket bound %v", got, p50)
	}
	// The overflow bucket answers with the top bound.
	var top Hist
	top.Observe(time.Hour)
	if got := top.SnapshotHist().Quantile(1); got != time.Duration(1<<(NHistBuckets-2)) {
		t.Errorf("overflow quantile = %v", got)
	}
}

func TestBucketLabel(t *testing.T) {
	if BucketLabel(0) != "≤1ns" {
		t.Fatalf("label 0 = %q", BucketLabel(0))
	}
	if BucketLabel(20) != "≤1.048576ms" {
		t.Fatalf("label 20 = %q", BucketLabel(20))
	}
	if !strings.HasPrefix(BucketLabel(NHistBuckets-1), ">") {
		t.Fatalf("last label = %q", BucketLabel(NHistBuckets-1))
	}
}

func TestRingDisabledByDefault(t *testing.T) {
	var r Ring
	r.Emit(EvSend, 1, 2)
	if evs := r.Events(); len(evs) != 0 {
		t.Fatalf("disabled ring recorded %v", evs)
	}
}

func TestRingEmitOrderAndFields(t *testing.T) {
	var r Ring
	r.Enable(vclock.NewVirtual())
	r.Emit(EvConnect, 1, 0)
	r.Emit(EvSend, 7, 512)
	r.Emit(EvRetransmit, 7, 0)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	wantKinds := []Kind{EvConnect, EvSend, EvRetransmit}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
		if ev.When < 0 {
			t.Fatalf("event %d when = %v", i, ev.When)
		}
	}
	if evs[1].A != 7 || evs[1].B != 512 {
		t.Fatalf("send args = %d,%d", evs[1].A, evs[1].B)
	}
	ks := r.Kinds()
	for i, k := range ks {
		if k != wantKinds[i] {
			t.Fatalf("kinds = %v", ks)
		}
	}
	text := r.TraceText()
	if !strings.Contains(text, "send 7 512") {
		t.Fatalf("trace text:\n%s", text)
	}
	r.Disable()
	r.Emit(EvHangup, 0, 0)
	if got := len(r.Events()); got != 3 {
		t.Fatalf("disabled ring grew to %d events", got)
	}
}

func TestRingWraparound(t *testing.T) {
	var r Ring
	r.Enable(vclock.NewVirtual())
	const n = RingSize + 50
	for i := range n {
		r.Emit(EvSend, int64(i), 0)
	}
	evs := r.Events()
	if len(evs) != RingSize {
		t.Fatalf("got %d events, want %d", len(evs), RingSize)
	}
	// Oldest surviving event is n-RingSize, newest n-1.
	if evs[0].A != n-RingSize || evs[len(evs)-1].A != n-1 {
		t.Fatalf("window [%d..%d], want [%d..%d]",
			evs[0].A, evs[len(evs)-1].A, n-RingSize, n-1)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap at %d: %d -> %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestRingConcurrent hammers one ring from many goroutines while a
// reader snapshots: the race detector must stay quiet and every
// snapshot must be internally ordered.
func TestRingConcurrent(t *testing.T) {
	var r Ring
	r.Enable(vclock.NewVirtual())
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := range 4 {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := range 2000 {
				r.Emit(EvSend, int64(w), int64(i))
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Events()
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Errorf("snapshot out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := r.head.Load(); got != 8000 {
		t.Fatalf("head = %d, want 8000", got)
	}
}

func TestKindNames(t *testing.T) {
	if EvRetransmit.String() != "retransmit" || EvRAHit.String() != "readahead-hit" {
		t.Fatalf("kind names wrong: %v %v", EvRetransmit, EvRAHit)
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind = %q", got)
	}
	// Every declared kind has a name: a new event kind without one
	// would render trace files with blanks.
	for k := Kind(0); k < nKinds; k++ {
		if kindNames[k] == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
