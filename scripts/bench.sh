#!/bin/sh
# bench.sh — run the repo's headline benchmarks and record them as
# BENCH_PR10.json: one object per benchmark with name, ns/op, B/op and
# allocs/op, so a future PR can diff performance against this one
# mechanically. Usage:
#
#   scripts/bench.sh              # full run (benchtime 2s), writes BENCH_PR10.json
#   scripts/bench.sh -smoke       # quick pass (benchtime 100ms), writes nothing,
#                                 # fails only if a benchmark fails to run
set -eu

cd "$(dirname "$0")/.."

benchtime=2s
out=BENCH_PR10.json
smoke=0
if [ "${1:-}" = "-smoke" ]; then
    benchtime=100ms
    out=""
    smoke=1
fi

# pkg:Benchmark pairs. The root package carries the end-to-end figures
# — including the WAN goodput rows for the line disciplines (baseline
# vs batch vs batch+compress, small messages and bulk); internal/cs the
# connection-server cache; internal/ndb the
# §4.1 hash-vs-scan experiment at 1× and 10× scale.
benches='
.:BenchmarkTable1LatencyILEther
.:BenchmarkTable1LatencyURPDatakit
.:BenchmarkTable1ThroughputURPDatakit
.:Benchmark9PReadOverIL
.:Benchmark9PReadOverILSerial
.:Benchmark9PReadOverILWAN
.:Benchmark9PReadOverILWANSerial
.:Benchmark9PReadSmallOverIL
.:Benchmark9PWriteOverIL
.:Benchmark9PRelayThroughGateway
.:Benchmark9PRelayThroughGateway1kClients
.:BenchmarkWANSmallMsgGoodput
.:BenchmarkWANSmallMsgGoodputBatch
.:BenchmarkWANSmallMsgGoodputBatchCompress
.:BenchmarkWANBulkGoodput
.:BenchmarkWANBulkGoodputBatch
.:BenchmarkWANBulkGoodputBatchCompress
internal/cs:BenchmarkCSTranslateHot
internal/cs:BenchmarkCSTranslateHotSet512
internal/cs:BenchmarkCSTranslateMissSingleflight
internal/cs:BenchmarkCSTranslateMixed
internal/ndb:BenchmarkNdbLookupHashed
internal/ndb:BenchmarkNdbLookupScan
internal/ndb:BenchmarkNdbLookupStaleHash
internal/ndb:BenchmarkNdbLookupHashed10x
internal/ndb:BenchmarkNdbLookupScan10x
internal/ndb:BenchmarkNdbLookupStaleHash10x
internal/ndb:BenchmarkNdbParse430kLines
internal/ndb:BenchmarkNdbBuildHash10x
'

pkgs=$(echo "$benches" | sed -n 's/^\(.*\):.*/\1/p' | sort -u)

if [ "$smoke" = 1 ]; then
    # One process per package is fine for the smoke pass: it only
    # checks that every benchmark still runs.
    for pkg in $pkgs; do
        pattern=$(echo "$benches" | sed -n "s|^$pkg:||p" | sed 's/$/$/' | paste -sd'|' -)
        go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem "./$pkg"
    done
    echo "bench.sh: smoke pass ok"
    exit 0
fi

# For the recorded run, each benchmark gets a fresh process: a long
# shared process lets earlier benchmarks perturb later ones (warm
# pools, accumulated GC state), which showed up as ~15% swings on the
# later entries. Build each test binary once, then run them one at a
# time.
raw=""
for pkg in $pkgs; do
    bin="/tmp/bench_repro_$(echo "$pkg" | tr './' '__').test"
    go test -c -o "$bin" "./$pkg"
    for name in $(echo "$benches" | sed -n "s|^$pkg:||p"); do
        line=$("$bin" -test.run '^$' -test.bench "${name}\$" \
            -test.benchtime "$benchtime" -test.benchmem | grep '^Benchmark')
        echo "$line"
        raw="$raw$line
"
    done
    rm -f "$bin"
done

# go test -bench lines look like:
#   BenchmarkName-8   123  4567 ns/op  89 B/op  10 allocs/op
# (the MB/s column, when present, sits between ns/op and B/op).
echo "$raw" | awk '
BEGIN { printf "[\n"; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs
}
END { printf "\n]\n" }
' > "$out"

echo "bench.sh: wrote $out"
