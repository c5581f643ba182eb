#!/usr/bin/env bash
# Builds ringbench from the sources of the checkout it is run in and runs
# one workload.  Run it from the repository root:
#
#   bash ringbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binary, scratch stores and traced-run spans.
set -euo pipefail
root="$(pwd)"
bench="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$bench" build -o "$build/ringbench" . >&2
exec "$build/ringbench" -root "$root" "$@"
