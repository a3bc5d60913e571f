#!/usr/bin/env bash
# Records the benchmark's goldens for the given seeds (default: 1 and the
# held-out seed 5) from the repository's own CLIs: cmd/experiments
# -workers 1 for suite, cmd/sinrsim for sinrsim-uniform. Run from the
# repository root:
#
#	bash perfbench/record_goldens.sh [seed...]
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
gold="$root/perfbench/goldens"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/" ./cmd/experiments ./cmd/sinrsim
[ $# -gt 0 ] || set -- 1 5
for seed in "$@"; do
	mkdir -p "$gold/suite/seed-$seed" "$gold/sinrsim-uniform"
	for name in ack proglb approg decay smb mmb cons churn fault; do
		"$out/experiments" -exp "$name" -workers 1 -seed "$seed" > "$gold/suite/seed-$seed/$name.txt"
	done
	"$out/sinrsim" -topology uniform -n 8000 -mac combined -broadcasters 50 -slots 1000 -seed "$seed" \
		> "$gold/sinrsim-uniform/seed-$seed.txt"
done
