#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source into
# .bench_build/ at the root of the checkout, then run it with the
# arguments given. Go's build cache, its temporary files and the
# benchmark's own scratch directory (os.MkdirTemp) are all pointed into
# .bench_build/, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: $root is not the photon module (no go.mod): nothing to build the benchmark from" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/photon-bench" ./bench
exec "$build/photon-bench" "$@"
