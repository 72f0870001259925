package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins the §4 tour in the paper's world on the virtual
// clock.
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

const want = `# ndb queries
sys=helix: dom=helix.research.bell-labs.com ip=135.104.9.31 dk=nj/astro/helix
auth for helix (from the network entry): p9auth
fs for helix: bootes.research.bell-labs.com
il!...!9fs uses port 17008

# /net/cs translations (ndb/csquery)
> net!helix!9fs
/net/il/clone 135.104.9.31!17008
/net/tcp/clone 135.104.9.31!564
/net/dk/clone nj/astro/helix!9fs
> net!$auth!rexauth
/net/il/clone 135.104.9.34!17021
/net/dk/clone nj/astro/p9auth!rexauth
> tcp!bootes!ftp
/net/tcp/clone 135.104.9.2!21

# /net/dns
> musca.research.bell-labs.com ip
musca.research.bell-labs.com ip 135.104.9.6
> fs.research.bell-labs.com ip
fs.research.bell-labs.com cname bootes.research.bell-labs.com
bootes.research.bell-labs.com ip 135.104.9.2
`
