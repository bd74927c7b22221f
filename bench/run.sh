#!/bin/bash
# The command of BENCHMARK.json, run from the checkout's root with the
# driver's arguments. It keeps what the Go toolchain writes (build
# cache, temporary directories) inside the checkout, where everything
# else the benchmark writes already is, then hands over to
# cmd/sparker-load.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTELEMETRY=off
exec go run ./cmd/sparker-load "$@"
