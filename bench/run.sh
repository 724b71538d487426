#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write stays under the
# checkout: the Go build cache and the binary in .bench_build/, results,
# traces and temp dirs in bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/bench" -o "$build/checkmate-bench" .
cd "$root"
exec "$build/checkmate-bench" "$@"
