#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Everything the build and the
# run leave behind goes to .bench_build/ there: the Go build cache, the
# binary, span files and temporary stores.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"

# The Go command's caches and its telemetry counters live under the
# user's home unless pointed elsewhere.
export XDG_CONFIG_HOME="$work/config"
export XDG_CACHE_HOME="$work/cache"
export GOCACHE="$work/gocache"
export GOTMPDIR="$work/tmp"
export GOPATH="$work/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off
export TMPDIR="$work/tmp"

(cd "$here" && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"
