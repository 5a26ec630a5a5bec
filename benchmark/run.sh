#!/usr/bin/env bash
# run.sh — build the benchmark and run it with the given arguments.
#
# Everything the Go toolchain writes (build cache, temporary files, the
# benchmark and wdmserve binaries) goes under .bench_build/ at the
# repository root, so a run reads and writes only inside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$here" build -o "$out/benchmark" .
exec "$out/benchmark" -root "$root" "$@"
