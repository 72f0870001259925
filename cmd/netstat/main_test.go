package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins every stats file in helix's /net after the
// warm-up echoes, read locally and read from philw-gnot through a
// Datakit import (§6.1).
func TestTranscript(t *testing.T) {
	for _, tc := range []struct {
		imported bool
		want     string
	}{
		{false, wantLocal},
		{true, wantImported},
	} {
		for range 2 { // a second run in the same process prints the same bytes
			var out strings.Builder
			if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck, "helix", false, tc.imported, false) }); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != tc.want {
				t.Fatalf("printed:\n%s\nwant:\n%s", got, tc.want)
			}
		}
	}
}

const wantLocal = `== /net/ipstats
  in: 0
  out: 20
  forwarded: 0
  bad headers: 0
  no route: 0
  unreachable: 0
  arp-drops: 0
== /net/cs/stats
  queries: 10
  cache-hits: 0
  neg-hits: 0
  singleflight-waits: 0
  misses: 10
  errors: 0
  evictions: 0
  entries: 10
  lat: count 10 avg 0s
  lat ≤1ns: 10
== /net/cyc0/stats

== /net/dk/stats
  dk/0 Announced nj/astro/helix!exportfs
  dk/1 Announced nj/astro/helix!echo
  blocks: 0
  retransmits: 0
  rejects: 0
  enquiries: 0
  fcs-errs: 0
== /net/dk/0/stats

== /net/dk/1/stats

== /net/ether0/1/stats
  addr: 080069000003
  mtu: 1500
  in: 0
  out: 0
  in-bytes: 0
  out-bytes: 0
  overflows: 0
  crc-errs: 0
  conn 1: type 2048 in 0 out 0
== /net/ether0/2/stats
  addr: 080069000003
  mtu: 1500
  in: 0
  out: 0
  in-bytes: 0
  out-bytes: 0
  overflows: 0
  crc-errs: 0
  conn 2: type 2054 in 0 out 0
== /net/export/stats
  conns: 0
  conns-open: 0
  rpcs: 0
  workers-max: 0
  cache-hits: 0
  cache-misses: 0
  cache-stores: 0
  cache-evictions: 0
  cache-invalidations: 0
  cache-bytes: 0
== /net/il/stats
  il/0 Listening rtt 0 ms unacked 0 window 20 0.0.0.0!17666 0.0.0.0!0
  il/1 Listening rtt 0 ms unacked 0 window 20 0.0.0.0!56552 0.0.0.0!0
  il/2 Listening rtt 0 ms unacked 0 window 20 0.0.0.0!56553 0.0.0.0!0
  il/4 Established rtt 0 ms unacked 0 window 20 0.0.0.0!56552 135.104.9.31!2001
  msgs-sent: 8
  msgs-rcvd: 7
  retransmits: 0
  queries-sent: 0
  queries-rcvd: 0
  dups-rcvd: 0
  out-of-window: 0
  checksum-errs: 0
  rtt: count 2 avg 0s
  rtt ≤1ns: 2
== /net/il/0/stats

== /net/il/1/stats

== /net/il/2/stats

== /net/il/4/stats

== /net/mnt/stats
  mounts: 0
  rpcs: 0
  flushes: 0
  window-max: 0
  rpc: count 0 avg 0s
== /net/tcp/stats
  tcp/0 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!17007 0.0.0.0!0
  tcp/1 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!7 0.0.0.0!0
  tcp/2 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!9 0.0.0.0!0
  segs-sent: 12
  segs-rcvd: 12
  retransmits: 0
  rtt: count 2 avg 0s
  rtt ≤1ns: 2
== /net/tcp/0/stats

== /net/tcp/1/stats

== /net/tcp/2/stats

== /net/udp/stats
  overflows: 0
`

const wantImported = `== /net/ipstats
  in: 0
  out: 21
  forwarded: 0
  bad headers: 0
  no route: 0
  unreachable: 0
  arp-drops: 0
== /net/cs/stats
  queries: 10
  cache-hits: 0
  neg-hits: 0
  singleflight-waits: 0
  misses: 10
  errors: 0
  evictions: 0
  entries: 10
  lat: count 10 avg 0s
  lat ≤1ns: 10
== /net/cyc0/stats

== /net/dk/stats
  dk/0 Announced nj/astro/helix!exportfs
  dk/1 Announced nj/astro/helix!echo
  dk/2 Established nj/astro/helix!exportfs nj/astro/philw-gnot
  blocks: 171
  retransmits: 0
  rejects: 0
  enquiries: 0
  fcs-errs: 0
== /net/dk/0/stats

== /net/dk/1/stats

== /net/dk/2/stats

== /net/ether0/1/stats
  addr: 080069000003
  mtu: 1500
  in: 0
  out: 0
  in-bytes: 0
  out-bytes: 0
  overflows: 0
  crc-errs: 0
  conn 1: type 2048 in 0 out 0
== /net/ether0/2/stats
  addr: 080069000003
  mtu: 1500
  in: 0
  out: 0
  in-bytes: 0
  out-bytes: 0
  overflows: 0
  crc-errs: 0
  conn 2: type 2054 in 0 out 0
== /net/export/stats
  conns: 1
  conns-open: 1
  rpcs: 219
  workers-max: 1
  conn 1 philw-gnot: rpcs 219 reads 35 writes 0 flushes 0 pend-hw 1 inflight-hw 1 avg 344.894µs p99 4.194304ms
  cache-hits: 0
  cache-misses: 0
  cache-stores: 0
  cache-evictions: 0
  cache-invalidations: 0
  cache-bytes: 0
== /net/il/stats
  il/0 Listening rtt 0 ms unacked 0 window 20 0.0.0.0!17666 0.0.0.0!0
  il/1 Listening rtt 0 ms unacked 0 window 20 0.0.0.0!56552 0.0.0.0!0
  il/2 Listening rtt 0 ms unacked 0 window 20 0.0.0.0!56553 0.0.0.0!0
  msgs-sent: 9
  msgs-rcvd: 9
  retransmits: 0
  queries-sent: 0
  queries-rcvd: 0
  dups-rcvd: 0
  out-of-window: 0
  checksum-errs: 0
  rtt: count 2 avg 0s
  rtt ≤1ns: 2
== /net/il/0/stats

== /net/il/1/stats

== /net/il/2/stats

== /net/mnt/stats
  mounts: 0
  rpcs: 0
  flushes: 0
  window-max: 0
  rpc: count 0 avg 0s
== /net/tcp/stats
  tcp/0 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!17007 0.0.0.0!0
  tcp/1 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!7 0.0.0.0!0
  tcp/2 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!9 0.0.0.0!0
  segs-sent: 12
  segs-rcvd: 12
  retransmits: 0
  rtt: count 2 avg 0s
  rtt ≤1ns: 2
== /net/tcp/0/stats

== /net/tcp/1/stats

== /net/tcp/2/stats

== /net/udp/stats
  overflows: 0
`
