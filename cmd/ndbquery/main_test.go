package main

import (
	"strings"
	"testing"
)

// TestTranscript pins a §4.1 query and an attribute found by the
// system → network walk. ndbquery builds no world, so it needs no
// clock; a second run still prints the same bytes.
func TestTranscript(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sys", "helix"}, wantHelix},
		{[]string{"sys", "helix", "auth"}, "auth=p9auth\n"},
	} {
		for range 2 {
			var out strings.Builder
			if err := run(&out, "", tc.args); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != tc.want {
				t.Fatalf("printed:\n%s\nwant:\n%s", got, tc.want)
			}
		}
	}
}

const wantHelix = `sys=helix
	dom=helix.research.bell-labs.com
	bootf=/mips/9power
	ip=135.104.9.31
	ether=0800690222f0
	dk=nj/astro/helix
	proto=il
	flavor=9cpu
`
