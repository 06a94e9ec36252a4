#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then runs it
# with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload retwis --seed 1 --seconds 16 --trace 0
#
# The build cache, the binary and everything the run writes stay under
# .bench_build/ in the checkout. Without Meerkat's sources beside perfbench/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -data "$out/run" "$@"
