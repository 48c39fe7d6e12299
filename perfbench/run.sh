#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload des-sirius --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output, the Go build cache, GOPATH,
# the compiler's temporary files and the go command's own config (its
# telemetry counters) all stay in .bench_build/, so the run writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
