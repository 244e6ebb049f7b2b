#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash faclocperf/run.sh --workload cold-solve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (the Go build cache, the binary,
# data directories, traces) stays under .bench_build/ in the current
# directory. Without the repository around faclocperf/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/faclocperf" && go build -o "$out/faclocperf" .)
exec "$out/faclocperf" "$@"
