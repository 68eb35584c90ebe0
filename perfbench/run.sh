#!/bin/sh
# Builds the end-to-end benchmark from the surrounding checkout and runs it.
# Usage, from the root of the checkout:
#
#	sh perfbench/run.sh --workload write-durable --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's WAL directories stay
# under .bench_build in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
