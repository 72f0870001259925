package torture

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cyclone"
	"repro/internal/medium"
	"repro/internal/vclock"
)

// rawChurn is the fault cocktail the raw-books test drives: every copy
// the impairer makes, holds or throws away, and a line closed under
// traffic it still holds.
var rawChurn = medium.Impairment{Duplicate: 0.1, Reorder: 0.1, ReorderDepth: 3}

// TestImpairedMediaKeepExactRawBooks runs loss, duplication and
// reordering across an impaired Datakit circuit, an impaired Ethernet
// segment and an impaired Cyclone link, and checks that every raw
// buffer the media drew — copies the impairer made, a sender's buffer
// it copied from, frames it held back, what a closed line still
// carried — went back to the pool exactly once: RawInFlight ends where
// it started.
func TestImpairedMediaKeepExactRawBooks(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"datakit", func(t *testing.T) {
			// Reordering is outside a Datakit circuit's contract (cells
			// arrive ordered or not at all), and URP's mod-8 numbering
			// misdelivers under it; the books must balance anyway.
			Run(Scenario{Proto: ProtoURP, Seed: 5, Msgs: 60, Back: 30, Loss: 0.05, Impair: rawChurn})
		}},
		{"ether", func(t *testing.T) {
			if rep := Run(Scenario{Proto: ProtoIL, Seed: 5, Msgs: 60, Back: 30, Loss: 0.05, Impair: rawChurn}); rep.Failed() {
				t.Errorf("il: %v", rep)
			}
		}},
		{"cyclone", func(t *testing.T) {
			// The boards admit no loss, so no protocol recovers it:
			// what the wire keeps is read, the rest dies with the link.
			v := vclock.NewVirtual()
			v.Run(func() {
				link := cyclone.NewLink("cyc0", medium.Profile{Bandwidth: 1_000_000, Loss: 0.1, Seed: 5, Impair: rawChurn, Clock: v})
				a, b := link.Ends()
				ca, _ := a.NewConn()
				cb, _ := b.NewConn()
				if err := ca.Connect(""); err != nil {
					t.Error(err)
					return
				}
				if err := cb.Connect(""); err != nil {
					t.Error(err)
					return
				}
				msg := make([]byte, 1000) // a 1024-byte class buffer on the wire
				for range 60 {
					ca.Write(msg)
				}
				v.Sleep(10 * time.Millisecond) // half of it has landed
				buf := make([]byte, len(msg))
				for range 10 {
					cb.Read(buf)
				}
				link.Close()
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := block.Snapshot()
			tc.run(t)
			if after := block.Snapshot(); after.RawInFlight != before.RawInFlight {
				t.Errorf("raw buffers in flight %d -> %d", before.RawInFlight, after.RawInFlight)
			}
		})
	}
}
