#!/usr/bin/env bash
# Builds the benchmark and the mpserve daemon from this checkout's sources
# into .bench_build/ (Go build cache included, so nothing is written
# outside the checkout), then runs the benchmark with the given arguments:
#
#   bash mpperf/run.sh --workload figs|transfers|serve --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/mpperf" && go build -o "$out/mpperf" .)
(cd "$root" && go build -o "$out/mpserve" ./cmd/mpserve)
cd "$root"
exec "$out/mpperf" --root "$root" --mpserve "$out/mpserve" "$@"
