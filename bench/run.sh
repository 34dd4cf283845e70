#!/usr/bin/env bash
# Builds the HEBS benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload photo -seed 1
#   bash bench/run.sh -seed 1 -out bench.json
#
# The binary, the Go build cache and the toolchain's temporary and
# config files all stay under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd bench && go build -buildvcs=false -o "$build/hebs-bench" .)
exec "$build/hebs-bench" "$@"
