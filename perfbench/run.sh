#!/usr/bin/env bash
# Builds hullserve from the tree this script sits in, builds the benchmark
# harness, and runs it with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload bulk2d --seed 1 --seconds 14 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 14
#
# Build outputs, the Go build cache, Go's config and telemetry directory
# and temporary files stay under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/hullserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; cmd/hullserve and go.mod are missing here" >&2
	exit 2
fi
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/hullserve" ./cmd/hullserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/hullserve" -spec BENCHMARK.json "$@"
