#!/usr/bin/env bash
# Builds the layered benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload static-seq --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache
# and the traced runs' span files stay under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
