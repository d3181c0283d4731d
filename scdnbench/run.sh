#!/usr/bin/env bash
# Builds the S-CDN benchmark from the checkout it is run in and runs it.
# Run from the checkout root:
#
#   bash scdnbench/run.sh --workload small-fetch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# replica volumes, trace files) stays under .bench_build/ in the
# checkout. The build fails, and the script exits non-zero without a
# result, when the scdn module it benchmarks is not beside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$root/scdnbench" && go build -o "$build/scdn-bench" .) >&2
exec "$build/scdn-bench" -build-dir "$build" "$@"
