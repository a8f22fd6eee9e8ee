#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs
# it with every argument passed through. Run it from the repository
# root, for example:
#
#   bash e2ebench/run.sh --workload warm-serve --seed 1 --seconds 20 --trace 0
#
# Build products and the Go caches stay under .bench_build/ in the
# current directory; nothing is fetched over the network.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
