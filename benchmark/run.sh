#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (Go build cache and temporaries, binary, traces,
# profiles) stays inside the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/voxel-benchmark" .)
cd "$root"
exec "$build/voxel-benchmark" "$@"
