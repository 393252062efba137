#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (compiler cache, temporaries, the binary) stays under
# .bench_build/ in the checkout; results go to benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/corbalc-benchmark" .
exec "$build/corbalc-benchmark" "$@"
