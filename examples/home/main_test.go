package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins the §1 slow-link figures: exact simulated times
// for a file pulled over the 56k line and for the same work done on
// helix.
func TestTranscript(t *testing.T) {
	for range 2 { // a second run in the same process prints the same bytes
		var out strings.Builder
		if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck) }); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("printed:\n%s\nwant:\n%s", got, want)
		}
	}
}

const want = `pulling 19200 bytes over the serial line: 3.423958324s
running wc on the CPU server and fetching the count: 79.34027ms (400 lines)
the slow link moved 3 bytes instead of 19200
`
