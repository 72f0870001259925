package streams

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Put-chain residency: how long a received block sits in the stream —
// from the device end injecting it (DeviceUp) to the user read that
// consumes it. It is the streams-layer contribution to end-to-end
// latency, the §2.4 analogue of a queueing delay, and /net stats
// render it as the "residency" histogram.
//
// Tracking is opt-in: stamping every block costs a clock read per
// DeviceUp, so the hot path stays untouched until someone asks.
// Stamps come from the stream's own clock, so a virtual-clock stream
// records virtual residency.
var (
	residencyOn atomic.Bool

	// Residency is the process-wide put-chain residency histogram.
	Residency obs.Hist
)

// EnableResidency turns put-chain residency sampling on or off.
func EnableResidency(on bool) { residencyOn.Store(on) }

// ResidencyEnabled reports whether residency sampling is on.
func ResidencyEnabled() bool { return residencyOn.Load() }

// stampUp marks a block entering the stream at the device end.
func (s *Stream) stampUp(b *Block) {
	if residencyOn.Load() {
		b.Stamp = s.clk.Now().UnixNano()
	}
}

// observeResidency records the block's residency at first consumption.
func (s *Stream) observeResidency(b *Block) {
	if b.Stamp != 0 {
		Residency.Observe(time.Duration(s.clk.Now().UnixNano() - b.Stamp))
		b.Stamp = 0
	}
}
