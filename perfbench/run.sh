#!/usr/bin/env bash
# Builds the benchmark and the server binaries from this checkout, then runs
# one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pipelined-deposit --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, journals, span files) goes
# under .bench_build/ in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

cd "$root/perfbench"
go build -o "$build/bin/" . etx/cmd/etxappserver etx/cmd/etxdbserver
cd "$root"
# Pin the benchmark and the servers it launches to one CPU: on a shared
# two-vCPU machine, runs that kept both vCPUs busy lost 20-27% of their
# time to steal and their throughput swung by 2x between runs.
# Time the host steals from that CPU is left out of throughput's time base.
pin=()
if command -v taskset >/dev/null; then
	cpu=$(($(nproc) - 1))
	pin=(taskset -c "$cpu" "$build/bin/perfbench" --steal-cpu "$cpu")
else
	pin=("$build/bin/perfbench")
fi
exec "${pin[@]}" --bin "$build/bin" --work "$build/work" "$@"
