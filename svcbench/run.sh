#!/usr/bin/env bash
# Builds the path-query service benchmark from the checkout's sources and
# runs it with the given arguments. Run from the repository root:
#
#   bash svcbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, build cache) stays under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/pathsvc" || ! -f "$root/svcbench/go.mod" ]]; then
	echo "svcbench: run from the repository root (need go.mod, internal/pathsvc and svcbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/svcbench" && go build -trimpath -o "$out/svcbench" .) >&2

exec "$out/svcbench" "$@"
