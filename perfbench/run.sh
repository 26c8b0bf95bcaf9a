#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.  Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload coexpr --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, spill scratch and span dumps all live
# under $CARGO_TARGET_DIR (default .bench_build) in the working
# directory, and the build never reaches for the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
root="$(pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
