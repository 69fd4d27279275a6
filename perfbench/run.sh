#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it:
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artefact and output stays under
# .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
