#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache
# and the durable shards' data directories stay under .bench_build/ in
# the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg" \
	GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
