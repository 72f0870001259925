package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins the first 16 frames snooped on the office
// Ethernet while musca makes traffic.
func TestTranscript(t *testing.T) {
	for range 2 { // a second run in the same process prints the same bytes
		var out strings.Builder
		if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck, 16) }); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("printed:\n%s\nwant:\n%s", got, want)
		}
	}
}

const want = `ether(080069000004 -> ffffffffffff) arp(request who-has 135.104.9.31 tell 135.104.9.6)
ether(080069000003 -> 080069000004) arp(reply 135.104.9.31 is-at 080069000003)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) il(Sync 2001 -> 56552 id 2063991 ack 4294967295, 0 data)
ether(080069000003 -> 080069000004) ip(135.104.9.31 -> 135.104.9.6 ttl 64) il(Sync 56552 -> 2001 id 2063991 ack 2063991, 0 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) il(Ack 2001 -> 56552 id 2063991 ack 2063991, 0 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) il(Data 2001 -> 56552 id 2063992 ack 2063991, 8 data)
ether(080069000003 -> 080069000004) ip(135.104.9.31 -> 135.104.9.6 ttl 64) il(Ack 56552 -> 2001 id 2063991 ack 2063992, 0 data)
ether(080069000003 -> 080069000004) ip(135.104.9.31 -> 135.104.9.6 ttl 64) il(Data 56552 -> 2001 id 2063992 ack 2063992, 8 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) il(Ack 2001 -> 56552 id 2063992 ack 2063992, 0 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) il(Close 2001 -> 56552 id 2063993 ack 2063992, 0 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) tcp(5001 -> 9 S, 0 data)
ether(080069000003 -> 080069000004) ip(135.104.9.31 -> 135.104.9.6 ttl 64) il(Close 56552 -> 2001 id 2063992 ack 2063992, 0 data)
ether(080069000003 -> 080069000004) ip(135.104.9.31 -> 135.104.9.6 ttl 64) tcp(9 -> 5001 SA, 0 data)
ether(080069000003 -> 080069000004) ip(135.104.9.31 -> 135.104.9.6 ttl 64) tcp(9 -> 5001 A, 0 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) tcp(5001 -> 9 A, 0 data)
ether(080069000004 -> 080069000003) ip(135.104.9.6 -> 135.104.9.31 ttl 64) tcp(5001 -> 9 A, 11 data)
`
