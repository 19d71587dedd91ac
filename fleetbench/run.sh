#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it. Run
# it from the repository root; every argument goes to the benchmark:
#
#   bash fleetbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the run's data dirs all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
cd "$root"
exec "$out/fleetbench" "$@"
