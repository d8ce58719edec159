#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh -workload sweep-congest -seed 1 -seconds 12 -trace 0
#
# Run it from the repository root. The build cache and the binary live in
# .bench_build/ and the results in bench-out/, both under the current
# directory; the build needs no network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
