package main

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// TestTranscript pins Figure 1, the §2.3 connection directory and the
// §6.1 import, as -figure1 -transcript -import print them.
func TestTranscript(t *testing.T) {
	for range 2 { // a second run in the same process prints the same bytes
		var out strings.Builder
		if err := vclock.Simulate(func(ck vclock.Clock) error { return run(&out, ck, true, true, true) }); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("printed:\n%s\nwant:\n%s", got, want)
		}
	}
}

const want = `cpu% ls /net/ether0    # Figure 1
  ether0/clone
  ether0/1
  ether0/1/ctl
  ether0/1/data
  ether0/1/stats
  ether0/1/type
  ether0/2
  ether0/2/ctl
  ether0/2/data
  ether0/2/stats
  ether0/2/type
  ether0/3
  ether0/3/ctl
  ether0/3/data
  ether0/3/stats
  ether0/3/type
  ether0/4
  ether0/4/ctl
  ether0/4/data
  ether0/4/stats
  ether0/4/type
cpu% cat /net/ether0/1/type
  2048
cpu% cat /net/ether0/1/stats
  addr: 080069000003
  mtu: 1500
  in: 0
  out: 0
  in-bytes: 0
  out-bytes: 0
  overflows: 0
  crc-errs: 0
  conn 1: type 2048 in 0 out 0
cpu% cd /net/tcp/0
cpu% ls
  ctl
  data
  listen
  local
  remote
  stats
  status
  trace
cpu% cat local remote status
  135.104.9.6!5001
  135.104.9.2!564
  tcp/0 Established rtt 0 ms srcv 0 unacked 0
philw-gnot% ls /net
  /net/cs
  /net/dk
  /net/mnt
philw-gnot% import -a helix /net
philw-gnot% ls /net
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
philw-gnot% echo via tcp!helix!echo -> "hello via the gateway"
`
