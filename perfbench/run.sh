#!/usr/bin/env bash
# Builds the benchmark and the hbcserve binary from the sources of the
# checkout it is run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload tpal-2w --seed 1 --seconds 35 --trace 0
#
# Every build output, the Go build cache and the go command's own config
# files included, stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/hbcserve" ./cmd/hbcserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" -hbcserve "$out/hbcserve" "$@"
