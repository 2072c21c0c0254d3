#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash sfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#   bash sfbench/run.sh --steady 10 --seconds 15
#
# Everything the Go toolchain writes (build cache, temporary files, its own
# counters) stays under .bench_build in the checkout, and no module is ever
# fetched: the benchmark's only dependency is the repository itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/sfbench" && go build -buildvcs=false -o "$out/sfbench" .)
exec "$out/sfbench" "$@"
