package urp

import (
	"testing"

	"repro/internal/block"
	"repro/internal/vclock"
)

// TestAllocsWriteAck pins what one block costs the sender in the
// steady state: a one-block Write and the ack that retires it allocate
// nothing. The retransmit copy and the cell come from the block pool,
// and the ack moves what is left of the window to the front of its
// array, so the next Write's append reuses it instead of growing a new
// one.
func TestAllocsWriteAck(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var allocs float64
	v := vclock.NewVirtual()
	v.Run(func() {
		c := attach(&stubWire{}, nil, v)
		defer c.Close()
		msg := make([]byte, BlockSize)
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
				return
			}
			c.mu.Lock()
			next := c.sndNxt
			c.mu.Unlock()
			c.recvAck(next, false)
		})
	})
	t.Logf("one-block Write and its ack: %.1f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("a one-block Write and its ack allocate %.1f objects, want 0 (the send queue reallocated?)", allocs)
	}
}
