#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Everything the build writes stays under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$here" -o "$build/batchzk-benchmark" .
exec "$build/batchzk-benchmark" "$@"
