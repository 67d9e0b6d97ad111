#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it
# with the given arguments (see perfbench/README.md). Every build
# artifact, cache and scratch file stays under .bench_build/ at the
# checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -buildvcs=false -o "$out/perfbench" .
) >&2

cd "$root"
exec "$out/perfbench" -state "$out/perfbench-state" "$@"
