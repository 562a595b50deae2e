#!/usr/bin/env bash
# Builds `timingc` and the benchmark program from the checkout's sources
# into .bench_build/, then runs the benchmark with this script's arguments:
#
#   bash perfbench/run.sh --workload login-stream --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Every file the build writes (Go build
# cache included) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$out/timingc" ./cmd/timingc
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/timingc" -root "$root" "$@"
