#!/usr/bin/env bash
# Builds the benchmark against the arv source tree it sits in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 10 --trace 0
#
# Every file the toolchain writes (build cache, config, binary) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
