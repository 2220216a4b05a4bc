#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload search|swarm|fleet --seed N --seconds S --trace 0|1
# Every build output, cache and scratch file stays under .bench_build/ in
# the current directory (CARGO_TARGET_DIR overrides the name).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The toolchain's caches, module path and config (telemetry included) all
# live under the build directory, and nothing is fetched from the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --build-dir "$build" "$@"
