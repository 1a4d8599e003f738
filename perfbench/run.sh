#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload host-matrix --seed 1 --seconds 25 --trace 0
# Run from the repository root. The build cache and binary live in
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
