#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, span files and CPU profiles
# under benchmark/out/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/kubeshare-bench" ./benchmark
exec "$build/kubeshare-bench" "$@"
