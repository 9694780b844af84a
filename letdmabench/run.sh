#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Build outputs and the Go build cache stay under
# .bench_build so nothing is written outside the checkout.
#
#   bash letdmabench/run.sh --workload table1-milp --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/letdmabench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
go -C "$root/letdmabench" build -o "$out/letdmabench" . >&2
exec "$out/letdmabench" "$@"
