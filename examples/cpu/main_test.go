package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins the cpu session in the paper's world on the
// virtual clock.
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

const want = `terminal submitted: compile the chess endgames
terminal received:  COMPILE THE CHESS ENDGAMES (processed on helix)
`
