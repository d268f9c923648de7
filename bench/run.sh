#!/usr/bin/env bash
# Entry point named by BENCHMARK.json; run from the repository root:
#
#   bash bench/run.sh --workload serve_hit --seed 1 --seconds 20 --trace 0
#
# Builds the benchmark (its own module, bench/go.mod) into .bench_build/
# and runs it. Everything the Go toolchain writes stays inside the
# checkout: the build cache and the toolchain's telemetry counters would
# otherwise land in $HOME.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
