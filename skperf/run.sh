#!/usr/bin/env bash
# Builds skserve from the tree under test and the benchmark, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash skperf/run.sh --workload search --seed 1 --seconds 15 --trace 0
#   bash skperf/run.sh spread --workload search --runs 10
#
# Everything it builds, runs and writes stays under .bench_build/ in the
# repository root, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/skserve" ./cmd/skserve >&2
(cd skperf && go build -o "$out/skperf" .) >&2
exec "$out/skperf" "$@"
