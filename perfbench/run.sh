#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload drain --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build output, the Go build cache and temp
# files stay under $CARGO_TARGET_DIR (default .bench_build) so the
# benchmark writes nothing outside the checkout; GOPROXY=off keeps the
# build offline (the module has no dependencies to fetch).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/modcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
