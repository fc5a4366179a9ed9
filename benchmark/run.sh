#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh                        # all five workloads, end to end
#   bash benchmark/run.sh -workload suite -seed 3 -seconds 10 -trace 1
#
# Every file the build writes (Go build cache, temporaries, the binary) stays
# under .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C benchmark build -buildvcs=false -o "$out/hbench" .
exec "$out/hbench" "$@"
