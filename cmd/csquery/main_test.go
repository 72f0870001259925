package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins the §4.2 csquery session, typed at the prompt.
func TestTranscript(t *testing.T) {
	for range 2 { // a second run in the same process prints the same bytes
		var out strings.Builder
		in := strings.NewReader("net!helix!9fs\nnet!$auth!rexauth\n")
		if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck, "helix", nil, in) }); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("printed:\n%s\nwant:\n%s", got, want)
		}
	}
}

const want = `> /net/il/clone 135.104.9.31!17008
/net/tcp/clone 135.104.9.31!564
/net/dk/clone nj/astro/helix!9fs
> /net/il/clone 135.104.9.34!17021
/net/dk/clone nj/astro/p9auth!rexauth
` + "> \n" // the prompt left at end of input
