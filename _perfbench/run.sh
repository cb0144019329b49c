#!/usr/bin/env bash
# Builds celia-server and the benchmark from this checkout, then runs the
# benchmark with the given flags. Every build product, cache and log
# stays under .bench_build/ at the checkout root.
#
#   bash _perfbench/run.sh --workload fresh-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"

# Outside a checkout of the program there is nothing to build or run:
# fail before any go command starts.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/celia-server" ]]; then
	echo "perfbench: $root holds no celia-server sources to build" >&2
	exit 2
fi

mkdir -p "$out/perfbench" "$out/go-tmp" "$out/tmp" "$out/config/go/telemetry"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
# With telemetry on (the default "local" mode), the go command in a fresh
# config directory forks a detached upload sidecar that outlives the
# build. Turning it off keeps every process this script starts inside
# its own lifetime.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/perfbench/celia-server" ./cmd/celia-server)
(cd "$root/_perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --server "$out/perfbench/celia-server" --out "$out/perfbench" "$@"
