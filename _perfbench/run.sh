#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, e.g.
#
#   bash _perfbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build products, caches, run
# artifacts and span files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
