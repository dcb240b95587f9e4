#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload ycsb-b --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache stay under .bench_build in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
