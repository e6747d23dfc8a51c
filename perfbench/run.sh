#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it:
#
#   sh perfbench/run.sh --workload frame --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, toolchain telemetry) stays under .bench_build in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (is this a checkout of the repository?)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
