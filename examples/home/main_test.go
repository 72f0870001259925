package main

import (
	"os"
	"os/exec"
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

// TestCompressOnTheLine is the row where compress pays (EXPERIMENTS
// §2.4.1): pushed on both ends of the 57.6 kbaud line, it pulls the
// repetitive file home 24 times faster, and the 10-byte frame header
// costs the 3-byte count fetch 5.4 ms. The session runs plain, then
// compressed, in a child process of its own: helix's root numbers its
// qids from the process-wide counter, and a qid's bytes move what
// compress saves by a few bytes, so the figures are exact only for a
// fixed process history.
func TestCompressOnTheLine(t *testing.T) {
	if os.Getenv("HOME_COMPRESS_CHILD") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCompressOnTheLine$")
		cmd.Env = append(os.Environ(), "HOME_COMPRESS_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	var plain, packed strings.Builder
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&plain, ck) }); err != nil {
		t.Fatal(err)
	}
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&packed, ck, "compress") }); err != nil {
		t.Fatal(err)
	}
	if got := plain.String(); got != want {
		t.Errorf("plain, printed:\n%s\nwant:\n%s", got, want)
	}
	const wantPacked = `pulling 19200 bytes over the serial line: 143.229156ms
running wc on the CPU server and fetching the count: 84.722213ms (400 lines)
the slow link moved 3 bytes instead of 19200
`
	if got := packed.String(); got != wantPacked {
		t.Errorf("compressed, printed:\n%s\nwant:\n%s", got, wantPacked)
	}
}
