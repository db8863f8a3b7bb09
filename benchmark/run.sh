#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given: BENCHMARK.json's command. Everything the build
# writes — the binary, Go's build cache, its scratch and config
# directories — goes under .bench_build/ in the checkout, so a run
# touches nothing outside it. After the first build a call costs a cache
# check.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Without the repo around it there is nothing to measure: refuse, rather
# than let go find some other module further up.
[ -f "$root/go.mod" ] || { echo "benchmark/run.sh: no go.mod in $root: run it from a checkout of the repo" >&2; exit 1; }
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/vfpga-benchmark" ./benchmark
exec "$build/vfpga-benchmark" "$@"
