#!/usr/bin/env bash
# Builds the benchmark program and the reference adapter from the checkout
# it is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cold-google --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, cache and scratch
# file stays under .bench_build/ in that root; nothing is downloaded.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ in $root)" >&2
	exit 2
fi
out=$root/.bench_build/perfbench
mkdir -p "$out/bin"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/refadapter" repro/cmd/refadapter) >&2

exec "$out/bin/perfbench" -root "$root" -refadapter "$out/bin/refadapter" "$@"
