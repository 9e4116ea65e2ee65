#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ and runs it with the driver's arguments. Everything
# the go command writes (build cache, temp files, module cache, its env
# file and telemetry counters under the user config directory) is pointed
# into .bench_build/ too, so nothing outside the checkout is written.
# Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload read_hot --seed 1 --seconds 12 --trace 0
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/lambdafs-benchmark" .)
exec "$build/lambdafs-benchmark" -out "$build/out" "$@"
