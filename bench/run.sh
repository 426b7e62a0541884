#!/usr/bin/env bash
# Builds the harness and runs it from bench/. Everything the build and
# the run write stays inside bench/: Go's build cache, temp files, the
# binaries and the harness's own scratch under bench/.build/, traces and
# the summary under bench/out/.
#
#   bash bench/run.sh --seed 1                  all four workloads
#   bash bench/run.sh --seed 1 --repeat 2       twice, compared against the bounds
#   bash bench/run.sh --workload warm_and --seed 1 --seconds 20 --trace 0
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.build"
mkdir -p "$build/tmp" "$build/gocache"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/proxload" .
exec "$build/proxload" "$@"
