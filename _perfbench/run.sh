#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it from the tree's
# root; every argument is passed through, e.g.
#
#   bash _perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, temporary files and binary live under
# .bench_build/ in the tree, so a run writes nothing outside it. Build
# output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
