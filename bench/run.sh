#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark (its own module,
# bench/go.mod, which replaces the repository's module with ../) inside the
# checkout and run it from the checkout's root. Everything the build leaves
# behind (Go build cache, temporary files, the binary) stays under
# .bench_build/, as do the file-backed volumes of the durable-file workload.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/store ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod / internal/store / bench/go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the toolchain's own files (go/env, telemetry
# counters) inside the checkout as well.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C bench -o "$build/stairperf" .
exec "$build/stairperf" "$@"
