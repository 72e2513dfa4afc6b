#!/usr/bin/env bash
# Builds the scenario benchmark from source and runs it with the given
# flags, e.g.
#
#   bash scenariobench/run.sh --workload chaos --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/scenariobench" && go build -o "$out/scenariobench" .)
exec "$out/scenariobench" "$@"
