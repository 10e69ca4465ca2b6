#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see benchmark/README.md). Every build artefact, cache
# and temporary file stays under .bench_build/ at the repository root, and
# the Go toolchain is kept off the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-buildvcs=false

cd "$root"
go build -C benchmark -o "$build/hemem-benchmark" .
exec "$build/hemem-benchmark" "$@"
