#!/usr/bin/env bash
# Builds the benchmark from the source tree that contains this directory
# and runs it. Every build artefact, cache and result stays under
# .bench_build in the current directory, which must be the root of the
# source tree:
#
#   bash perfbench/run.sh --workload port-cold --seed 7 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out/perfbench-out" "$@"
