#!/bin/sh
# Entry point named by BENCHMARK.json: builds the benchmark's own module and
# runs it with the arguments given. Everything the toolchain writes — build
# cache included — stays under .bench_build in the checkout, so a run reads
# and writes nothing outside it. The benchmark builds cmd/traderd itself.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
