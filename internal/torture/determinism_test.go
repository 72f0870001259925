package torture

import (
	"reflect"
	"testing"
)

// TestChaosDeterminism is the same-seed identity gate: each chaos
// scenario runs twice on its own discrete-event clock, and everything observable must be bit-identical — the
// recorded impairment schedule (the decision stream is a pure function
// of seed and wire index, and virtual time makes the wire indices
// themselves deterministic), the wire counters, both direction
// checksums, the retransmission count, the simulated elapsed time, and
// the rendered report.
func TestChaosDeterminism(t *testing.T) {
	for _, proto := range Protos {
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			s := Chaos(proto, 7, 24)
			s.Impair.Record = true
			a := Run(s)
			b := Run(s)
			if a.Failed() {
				t.Fatalf("first run failed:\n%s", a)
			}
			if b.Failed() {
				t.Fatalf("second run failed:\n%s", b)
			}
			if !reflect.DeepEqual(a.Schedule, b.Schedule) {
				t.Errorf("impairment schedules differ: %d vs %d decisions", len(a.Schedule), len(b.Schedule))
			}
			if !reflect.DeepEqual(a.Wire, b.Wire) {
				t.Errorf("wire counts differ:\n  %v\n  %v", a.Wire, b.Wire)
			}
			if a.Forward != b.Forward || a.Backward != b.Backward {
				t.Errorf("direction stats differ:\n  %+v %+v\n  %+v %+v", a.Forward, a.Backward, b.Forward, b.Backward)
			}
			if a.Retransmits != b.Retransmits {
				t.Errorf("retransmits differ: %d vs %d", a.Retransmits, b.Retransmits)
			}
			if a.Elapsed != b.Elapsed {
				t.Errorf("simulated elapsed differs: %v vs %v", a.Elapsed, b.Elapsed)
			}
			if a.String() != b.String() {
				t.Errorf("rendered reports differ:\n%s\n%s", a, b)
			}
		})
	}
}

// TestChaosDeterminismModules is the same-seed identity gate with the
// line-discipline stack pushed on both ends. The modules take their
// flush timers from the conversation's clock and nothing else, so a
// dressed virtual scenario must stay bit-identical run to run — the
// wire schedule, the direction checksums, and every module counter on
// both ends, across 32 seeds per protocol.
func TestChaosDeterminismModules(t *testing.T) {
	for _, proto := range Protos {
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 32; seed++ {
				s := Chaos(proto, seed, 12)
				s.Impair.Record = true
				s.Mods = []string{"compress", "batch 1024 2ms"}
				a := Run(s)
				b := Run(s)
				if a.Failed() {
					t.Fatalf("seed %d first run failed:\n%s", seed, a)
				}
				if b.Failed() {
					t.Fatalf("seed %d second run failed:\n%s", seed, b)
				}
				if !reflect.DeepEqual(a.Schedule, b.Schedule) {
					t.Errorf("seed %d: impairment schedules differ: %d vs %d decisions", seed, len(a.Schedule), len(b.Schedule))
				}
				if a.Forward != b.Forward || a.Backward != b.Backward {
					t.Errorf("seed %d: direction stats differ:\n  %+v %+v\n  %+v %+v", seed, a.Forward, a.Backward, b.Forward, b.Backward)
				}
				if !reflect.DeepEqual(a.DialMods, b.DialMods) || !reflect.DeepEqual(a.AccMods, b.AccMods) {
					t.Errorf("seed %d: module counters differ:\n  %v %v\n  %v %v", seed, a.DialMods, a.AccMods, b.DialMods, b.AccMods)
				}
				if a.Elapsed != b.Elapsed {
					t.Errorf("seed %d: simulated elapsed differs: %v vs %v", seed, a.Elapsed, b.Elapsed)
				}
				if a.String() != b.String() {
					t.Errorf("seed %d: rendered reports differ:\n%s\n%s", seed, a, b)
				}
			}
		})
	}
}
