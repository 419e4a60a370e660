#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash servebench/run.sh --workload kde-point --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and toolchain state live under
# .bench_build in the checkout, so the run writes nothing outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -spans "$out/spans" "$@"
