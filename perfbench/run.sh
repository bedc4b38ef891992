#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload skeap2-burst --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, span files) goes under
# .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# HOME and XDG_CONFIG_HOME point inside too, so the toolchain's own
# config and telemetry files stay in the tree.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
