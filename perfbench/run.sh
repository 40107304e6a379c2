#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash perfbench/run.sh --workload sim-rubis --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, Go
# configuration and telemetry, the binary) stays under .bench_build in
# the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
# Run on one CPU, the last one this shell may use: on a small shared VM
# the availability of a second vCPU is the largest source of noise.
if cpus=$(taskset -cp $$ 2>/dev/null); then
	exec taskset -c "${cpus##*[ ,-]}" "$out/perfbench" "$@"
fi
echo "perfbench: taskset not found, running unpinned" >&2
exec "$out/perfbench" "$@"
