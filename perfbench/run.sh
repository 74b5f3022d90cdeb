#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run's files go to .bench_build/
# under the root, so nothing is written outside the checkout; the build
# ignores any user go.env or go.work and never downloads.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
