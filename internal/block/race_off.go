//go:build !race

package block

// RaceEnabled reports whether the race detector is compiled in; alloc
// gates skip under it because its instrumentation allocates.
const RaceEnabled = false

// Without the race detector no allocation site is recorded: the
// TestAllocs* gates and the benchmark pay nothing for the recorder.
func track(*Block)   {}
func untrack(*Block) {}

// Outstanding names the allocation sites of the blocks not yet freed.
// Only a -race build records sites; this one returns nil.
func Outstanding() []string { return nil }
