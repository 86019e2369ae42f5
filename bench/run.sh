#!/usr/bin/env bash
# Builds dpbench from the checkout in the working directory and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload fit-dense --seed 1 --seconds 6 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# bench/.bench_build/. The program under test is the dpkron module at the
# checkout root (see bench/go.mod), so a directory holding only bench/
# fails to build and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/bench/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME holds the go command's telemetry counters.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/dpbench" ./cmd/dpbench
exec "$out/dpbench" "$@"
