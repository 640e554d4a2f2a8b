#!/usr/bin/env bash
# Builds genclusd and the end-to-end benchmark from the checkout in the
# current directory, then runs one workload. Usage, from the repo root:
#
#   bash e2ebench/run.sh --workload assign-hot --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, daemon data dirs, span dumps and
# per-run reports all stay under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/genclusd ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the root of a genclus checkout (cmd/genclusd not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
# Keep the Go toolchain's caches, temp files and config (telemetry
# counters included) inside the checkout, and never reach the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/bin/genclusd" ./cmd/genclusd
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" -daemon "$build/bin/genclusd" -work "$build" "$@"
