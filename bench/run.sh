#!/usr/bin/env bash
# Builds the benchmark and the server it drives from the checkout's source
# into .bench_build/ (Go's build cache included, so nothing is written
# outside the checkout) and runs the benchmark with the arguments given.
# A second run finds everything built and starts within a fraction of a
# second.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
bin="$root/.bench_build/bin"
go build -o "$bin/tsjserve" ./cmd/tsjserve >&2
go -C bench build -o "$bin/bench" . >&2
exec "$bin/bench" "$@"
