#!/bin/bash
# Builds the benchmark from the checkout it sits in and runs it there.
# Everything the Go toolchain writes — build cache, temporary files, the
# binaries — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
