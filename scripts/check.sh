#!/bin/sh
# check.sh — the repo's tier-1 gate: formatting, vet, build, the full
# test suite under the race detector, netvet (the in-tree concurrency
# and resource-lifecycle analyzer), a fixed-seed chaos pass of the
# protocol torture harness, and short fuzz smokes over the wire-facing
# parsers. Everything must pass for a PR to land.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi
# There is one block (block.Block); the wrapper's conversions stay gone.
if grep -rnE 'TakeInner|NewBlockOwned' --include='*.go' internal cmd examples bench | grep -v testdata; then
    echo "the streams.Block wrapper's conversions are back (see above)" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== netvet ./..."
go run ./cmd/netvet ./...

echo "== bench module: vet + tests (race)"
# The benchmark is a module of its own (repro/bench, replace repro =>
# ../), so the ./... patterns above do not reach it.
(cd bench && go vet ./... && go test -race ./...)

echo "== block discipline: AllocsPerRun gates (race off)"
# The race detector's instrumentation allocates, so these self-skip
# under -race above and run here without it: a copy or pool bypass
# creeping back into the hot paths fails the gate, and so does a
# goroutine per packet on the transmit path (tcp TestAllocsSegmentSend).
go test -run '^TestAllocs' -count=1 ./internal/streams ./internal/ninep ./internal/cs ./internal/tcp ./internal/vclock

echo "== chaos: real-clock torture pass (fixed seed)"
go run ./cmd/netsim -chaos -seed 1 -msgs 40

echo "== chaos: 32-seed virtual-time sweep"
# The discrete-event clock makes a whole seed sweep affordable: every
# protocol crosses the impairment cocktail under 32 different
# schedules in wall-clock seconds. A failure ddmin-shrinks to its
# minimal scenario exactly as in the real-clock pass.
go run ./cmd/netsim -chaos -virtual -seed 1 -seeds 32 -msgs 40

echo "== chaos: line-discipline sweep (batch+compress pushed both ends)"
# The same matrix with the §2.4 modules dressed on every conversation:
# the disciplines must survive loss, duplication, reordering and
# corruption on all five protocols without breaking the byte streams
# they carry. (Same-seed byte-determinism of the dressed runs is pinned
# separately by TestChaosDeterminismModules under go test above.)
go run ./cmd/netsim -chaos -virtual -seed 1 -seeds 8 -msgs 40 -mods 'compress,batch 1024 2ms'

echo "== stats conformance: /net files vs wire ground truth"
# The conformance suite balances every /net/*/stats file against the
# impairment engine's own books (drops, dups, corrupted emissions) —
# the observability layer must never disagree with the wire.
go test -run '^TestStatsConformance' -count=1 ./internal/torture

echo "== coverage floors"
# One table, one function. obs rides every hot path; the analyzer is
# itself load-bearing (this script trusts its verdicts); exportfs is the
# serving stack's front door; ccache hands out refcounted memory on the
# gateway's hot path; xport is the scaffold every IL and TCP
# conversation stands on, and devtree the conversation table every
# Ethernet and protocol-device conversation lives in; ninep and mnt are
# the mount path, where one window carries every large transfer; vclock
# holds every primitive a simulated machine may block in, the one lock
# that may be held across a park among them, and ns resolves every path
# on a mount-table snapshot its writers replace under its readers. Three
# floors are higher: the line disciplines in streams rewrite every byte
# a dressed conversation carries, cs answers every symbolic dial, so a
# silent miscount there skews every experiment, and il's recovery path
# runs only when a wire loses something, which is when it must be right.
floor() {
    cov=$(go test -cover "./internal/$1" | awk '{ for (i = 1; i <= NF; i++) if ($i == "coverage:") print $(i+1) }' | tr -d '%')
    if [ -z "$cov" ] || [ "$(printf '%.0f' "$cov")" -lt "$2" ]; then
        echo "internal/$1 coverage ${cov:-unknown}% < $2%" >&2
        exit 1
    fi
    echo "internal/$1 coverage ${cov}% (floor $2%)"
}
for f in obs:80 analysis:80 exportfs:80 ccache:80 xport:80 devtree:80 mnt:80 ninep:80 vclock:80 ns:80 il:85 streams:85 cs:85; do
    floor "${f%:*}" "${f#*:}"
done

echo "== code size: the paper's §3 yardstick (IL is 847 lines)"
# EXPERIMENTS §2 "IL is small" as a gate: il.go has been over the
# paper's figure before without anyone noticing. The rows printed are
# the ones that table records.
lines() { cat "$@" | wc -l | tr -d ' '; }
il=$(lines internal/il/il.go)
tcp=$(lines internal/tcp/tcp.go)
udp=$(lines internal/udp/udp.go)
xport=$(lines $(ls internal/xport/*.go | grep -v _test.go))
echo "il.go $il  tcp.go $tcp  udp.go $udp  xport/*.go $xport  total $((il + tcp + udp + xport))"
echo "storm/*.go $(lines $(ls internal/storm/*.go | grep -v _test.go))  cmd/netsim/main.go $(lines cmd/netsim/main.go)"
echo "ninep/client.go $(lines internal/ninep/client.go)  mnt/mnt.go $(lines internal/mnt/mnt.go)  exportfs.go $(lines internal/exportfs/exportfs.go)  ninep/server.go $(lines internal/ninep/server.go)  core/services.go $(lines internal/core/services.go)"
echo "vclock/*.go $(lines $(ls internal/vclock/*.go | grep -v _test.go))  ninep/transport.go $(lines internal/ninep/transport.go)  ns/ns.go $(lines internal/ns/ns.go)"
echo "block/block.go $(lines internal/block/block.go)  streams/*.go $(lines $(ls internal/streams/*.go | grep -v _test.go))"
echo "analysis/locks.go $(lines internal/analysis/locks.go)  analysis/lockorder.go $(lines internal/analysis/lockorder.go)"
echo "ip/stack.go $(lines internal/ip/stack.go)  ether.go $(lines internal/ether/ether.go)  ether/dev.go $(lines internal/ether/dev.go)  netdev.go $(lines internal/netdev/netdev.go)  devtree/*.go $(lines $(ls internal/devtree/*.go | grep -v _test.go))  medium.go $(lines internal/medium/medium.go)  uart.go $(lines internal/uart/uart.go)"
if [ "$il" -gt 847 ]; then
    echo "internal/il/il.go is $il lines, over the paper's 847" >&2
    exit 1
fi

echo "== gateway storm smoke (60 tenants on the virtual clock)"
# A fixed-seed run of the multi-tenant import storm: one exporter,
# sixty machines importing through the shared gateway server and its
# cache, on the discrete-event clock so the pass is deterministic.
go run ./cmd/netsim -virtual -gateway -machines 60 -simtime 10s -seed 1

echo "== registry storm smoke (determinism of the t=0 dial storm)"
# Two same-seed runs of the no-stagger dial storm must agree byte for
# byte — calls, retries, CS books, latency quantiles — once the
# wall-clock tail of the report is stripped.
run1=$(go run ./cmd/netsim -virtual -registry -machines 60 -simtime 4s -seed 1 | sed 's/ in [^ ]* wall$//')
run2=$(go run ./cmd/netsim -virtual -registry -machines 60 -simtime 4s -seed 1 | sed 's/ in [^ ]* wall$//')
if [ "$run1" != "$run2" ]; then
    echo "registry storm diverged across same-seed runs:" >&2
    echo "  $run1" >&2
    echo "  $run2" >&2
    exit 1
fi
echo "$run1"

echo "== package benchmarks still run (one iteration each)"
# Nothing is recorded: this only keeps the cs, ndb, streams and ninep
# benchmarks from rotting.
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "== fuzz smoke (10s per parser)"
# One list, one loop. -fuzzminimizetime 5x: a crasher found during a
# smoke should minimize in a handful of runs, not stall the gate for the
# default 60s.
for f in il:FuzzParseHeader ip:FuzzUnmarshal tcp:FuzzUnmarshal dnssrv:FuzzUnmarshal ninep:Fuzz9PMessage streams:FuzzCompressFrame streams:FuzzBatchReassembly; do
    go test -run '^$' -fuzz "^${f#*:}\$" -fuzztime 10s -fuzzminimizetime 5x "./internal/${f%:*}"
done

echo "check.sh: all gates passed"
