#!/usr/bin/env bash
# Builds bench/realperf from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1                # all four workloads
#
# The build cache, the build's temporary files and the binary stay inside
# the checkout, under .bench_build/, so the benchmark writes nothing outside
# it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/realperf" ./realperf
exec "$out/realperf" "$@"
