package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vclock"
)

// TestTranscript pins a listing of helix's /net and /net/ether0, and
// -cat of /lib/ndb/local, which is the paper's database.
func TestTranscript(t *testing.T) {
	for _, tc := range []struct {
		cat   bool
		paths []string
		want  string
	}{
		{false, []string{"/net", "/net/ether0"}, wantList},
		{true, []string{"/lib/ndb/local"}, core.PaperNdb},
	} {
		for range 2 { // a second run in the same process prints the same bytes
			var out strings.Builder
			if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck, "helix", tc.cat, tc.paths) }); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != tc.want {
				t.Fatalf("printed:\n%s\nwant:\n%s", got, tc.want)
			}
		}
	}
}

const wantList = `drwxrwxr-x helix    helix           0 ether0
drwxrwxr-x helix    helix           0 il
drwxrwxr-x helix    helix           0 tcp
drwxrwxr-x helix    helix           0 udp
drwxrwxr-x helix    helix           0 dk
-r--r--r-- helix    helix           0 ipstats
drwxrwxr-x helix    helix           0 mnt
-rw-rw-rw- helix    helix           0 dns
drwxrwxr-x helix    helix           0 cs
drwxrwxr-x helix    helix           0 cyc0
drwxrwxr-x helix    helix           0 export
-rw-rw-rw- helix    helix           0 clone
dr-xr-xr-x helix    helix           0 1
dr-xr-xr-x helix    helix           0 2
`
