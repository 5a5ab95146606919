#!/bin/sh
# Builds numabench from source and runs it with the arguments given. Run
# from the root of a checkout (BENCHMARK.json's command does). Everything
# the build and the run write — Go's build cache, temp directories, the
# binary — stays under .bench_build/ in that checkout; traces go to
# bench/out/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
go build -C "$(dirname "$0")" -o "$build/numabench" ./cmd/numabench
exec "$build/numabench" "$@"
