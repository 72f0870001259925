package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins the quickstart dial in the paper's world on the
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

const want = `dialed helix; connection directory /net/il/1
local  135.104.9.6!2001
remote 135.104.9.31!56552
echoed: "hello from musca"
status: il/1 Established rtt 0 ms unacked 0 window 20
`
