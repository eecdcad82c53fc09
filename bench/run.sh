#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh -workload serve_small -seed 1 -seconds 10 -trace 0
#
# Everything the build and the runs write — Go caches, binaries, run
# files, traces — goes to .bench_build/ in the checkout, and the Go
# command is kept off the network.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -out "$build" "$@"
