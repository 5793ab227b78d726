#!/usr/bin/env bash
# Builds the benchmark and the rentpland daemon from the source tree this
# script sits in, then runs the benchmark with the given arguments
# (--workload, --seed, --seconds, --trace; see README.md). Run it from the
# repository root. Every build artifact and cache lives under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's settings and telemetry counters
# under .bench_build too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/rentpland" rentplan/cmd/rentpland)
exec "$out/perfbench" -daemon "$out/rentpland" -out "$out" "$@"
