#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash bench/run.sh --workload pod-burst --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all --seed 2
#   bash bench/run.sh compare A.json B.json
#
# The build cache, the binary and every result file stay under
# .bench_build/ in the checkout. The build fails, and nothing is run, when
# the checkout does not hold the simulator's sources next to bench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
