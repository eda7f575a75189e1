#!/usr/bin/env bash
# Builds lggd and the benchmark from source, then runs one workload:
#
#   bash benchmark/run.sh --workload serve-single --seed 1 --seconds 25 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes
# (Go build cache, binaries, daemon state) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -o "$out/bin/lggd" ./cmd/lggd
(cd benchmark && go build -o "$out/bin/lggbench-e2e" .)
exec "$out/bin/lggbench-e2e" -lggd "$out/bin/lggd" -workdir "$out/run" "$@"
