package table1

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestShapeMatchesPaper is the headline reproduction check. On the
// calibrated media the paper's orderings hold in both columns —
// Cyclone, then IL/ether, then URP/Datakit — and, because the network
// rows run on the discrete-event clock, each is pinned at the
// precision the table prints. A change that moves a row must re-pin it
// here and re-record it in EXPERIMENTS.
func TestShapeMatchesPaper(t *testing.T) {
	rows := map[string]Row{}
	for _, r := range Run(DefaultConfig()).Rows {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Name, r.Err)
		}
		rows[r.Name] = r
	}
	if _, ok := rows["pipes"]; !ok {
		t.Error("missing row pipes")
	}
	il, urp, cyc := rows["IL/ether"], rows["URP/Datakit"], rows["Cyclone"]
	if !(cyc.Throughput > il.Throughput && il.Throughput > urp.Throughput) {
		t.Errorf("throughput Cyclone %v, IL/ether %v, URP/Datakit %v: want Cyclone > IL > URP",
			cyc.Throughput, il.Throughput, urp.Throughput)
	}
	if !(cyc.Latency < il.Latency && il.Latency < urp.Latency) {
		t.Errorf("latency Cyclone %v, IL/ether %v, URP/Datakit %v: want Cyclone < IL < URP",
			cyc.Latency, il.Latency, urp.Latency)
	}
	for name, want := range map[string]string{
		"IL/ether":    "1.15 0.581",
		"URP/Datakit": "0.25 0.920",
		"Cyclone":     "3.39 0.101",
	} {
		r := rows[name]
		if got := fmt.Sprintf("%.2f %.3f", r.Throughput, r.Latency); got != want {
			t.Errorf("%s reads %s (MB/s, ms), pinned at %s", name, got, want)
		}
	}
}

func TestFormatLayout(t *testing.T) {
	res := Result{Rows: []Row{
		{Name: "pipes", Throughput: 8.15, Latency: 0.255},
		{Name: "IL/ether", Throughput: 1.02, Latency: 1.42},
	}}
	out := res.Format()
	if !strings.Contains(out, "Table 1") ||
		!strings.Contains(out, "MBytes/sec") ||
		!strings.Contains(out, "millisec") {
		t.Errorf("format header:\n%s", out)
	}
	if !strings.Contains(out, "8.15") || !strings.Contains(out, "1.420") {
		t.Errorf("format values:\n%s", out)
	}
	// Error rows render.
	res.Rows = append(res.Rows, Row{Name: "broken", Err: errFake{}})
	if !strings.Contains(res.Format(), "broken") {
		t.Error("error row missing")
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestBuildWorldPaths(t *testing.T) {
	w, paths, err := BuildWorld(FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var names []string
	for _, p := range paths {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	want := []string{"Cyclone", "IL/ether", "URP/Datakit", "pipes"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("paths %v", names)
	}
}

func TestMeasureLatencySanity(t *testing.T) {
	p := pipePath()
	lat, err := MeasureLatency(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || lat > time.Second {
		t.Errorf("pipe latency %v", lat)
	}
}

func TestMeasureThroughputSanity(t *testing.T) {
	p := pipePath()
	tp, err := MeasureThroughput(p, 16*1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Errorf("pipe throughput %v", tp)
	}
}
