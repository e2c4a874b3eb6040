#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload efw-flood --seed 1 --seconds 20 --trace 0
#
# Every build and cache file goes under .bench_build/ at the root, so
# the run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOENV=off
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
