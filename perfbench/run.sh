#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The build cache lives beside the binary, so nothing is written outside the
# checkout. Without the repository around it (no ../go.mod) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
