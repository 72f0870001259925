#!/bin/bash
# run.sh — the benchmark as the driver runs it: build ./bench from
# source, then hand the arguments to the binary.
#
#   bash bench/run.sh --workload wan-read --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files, the
# binary — goes under .bench_build at the root of the checkout, so a run
# leaves nothing outside it and does not depend on HOME.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
