#!/usr/bin/env bash
# Builds the planning-service benchmark from the sources of the checkout
# it sits in and runs it; every argument is passed on (see doc.go):
#
#   bash perfbench/run.sh --workload plan-hier --seed 1 --seconds 10 --trace 0
#
# Build cache, binary and traces stay under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --trace-out "$out/trace" "$@"
