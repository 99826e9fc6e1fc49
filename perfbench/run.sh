#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload edge_hit --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary work
# directories, the binary) stays under .bench_build at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root does not hold the TACTIC source tree" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS="-mod=readonly -buildvcs=false"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
