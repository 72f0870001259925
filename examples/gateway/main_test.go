package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins §6.1 from philw's gnot with four more tenants of
// the gateway, their bill read over the import.
func TestTranscript(t *testing.T) {
	for range 2 { // a second run in the same process prints the same bytes
		var out strings.Builder
		if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck, 4) }); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("printed:\n%s\nwant:\n%s", got, want)
		}
	}
}

const want = `philw-gnot$ ls /net
  /net/cs
  /net/dk
  /net/mnt
tcp!helix!echo before import: file does not exist
philw-gnot$ import -a helix /net
philw-gnot$ ls /net
  /net/cs
  /net/cs
  /net/cyc0
  /net/dk
  /net/dk
  /net/dns
  /net/ether0
  /net/export
  /net/il
  /net/ipstats
  /net/mnt
  /net/mnt
  /net/tcp
  /net/udp
echo over tcp through the gateway: "tcp by way of the datakit"
philw-gnot$ cat /net/tcp/stats   # helix's, over the import
  tcp/0 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!17007 0.0.0.0!0
  tcp/1 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!7 0.0.0.0!0
  tcp/2 Listen rtt 0 ms srcv 0 unacked 0 0.0.0.0!9 0.0.0.0!0
  tcp/3 Established rtt 0 ms srcv 0 unacked 0 135.104.9.31!5001 135.104.9.31!7
  tcp/4 Established rtt 0 ms srcv 0 unacked 0 0.0.0.0!7 135.104.9.31!5001
  segs-sent: 8
  segs-rcvd: 8
  retransmits: 0
  rtt: count 2 avg 0s
  rtt ≤1ns: 2
philw-gnot$ cat /net/mnt/stats   # the import's own RPC bill
  mounts: 1
  rpcs: 34
  flushes: 0
  window-max: 1
  rpc: count 34 avg 1.25247ms
  rpc ≤1.048576ms: 27
  rpc ≤2.097152ms: 5
  rpc ≤4.194304ms: 1
  rpc ≤8.388608ms: 1
philw-gnot$ for i in ` + "`" + `seq 4` + "`" + `; do import helix /lib/ndb /n/c$i && cat /n/c$i/local; done >/dev/null
philw-gnot$ cat /net/export/stats   # helix's per-connection bill, over the import
  conns: 5
  conns-open: 5
  rpcs: 70
  workers-max: 1
  conn 1 philw-gnot: rpcs 38 reads 7 writes 2 flushes 0 pend-hw 1 inflight-hw 1 avg 432.315µs p99 2.097152ms
  conn 2 philw-gnot: rpcs 8 reads 2 writes 0 flushes 0 pend-hw 1 inflight-hw 1 avg 802.5µs p99 1.048576ms
  conn 3 philw-gnot: rpcs 8 reads 2 writes 0 flushes 0 pend-hw 1 inflight-hw 1 avg 802.5µs p99 1.048576ms
  conn 4 philw-gnot: rpcs 8 reads 2 writes 0 flushes 0 pend-hw 1 inflight-hw 1 avg 802.5µs p99 1.048576ms
  conn 5 philw-gnot: rpcs 8 reads 2 writes 0 flushes 0 pend-hw 1 inflight-hw 1 avg 802.5µs p99 1.048576ms
  cache-hits: 7
  cache-misses: 1
  cache-stores: 1
  cache-evictions: 0
  cache-invalidations: 0
  cache-bytes: 8192
`
