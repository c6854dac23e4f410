#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout. Everything the
# Go toolchain writes (build cache, temporary files) stays under bench/out,
# so a run reads and writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
[ -f go.mod ] || { echo "bench: $root is not a checkout of the repository (no go.mod)" >&2; exit 1; }
out="$root/bench/out"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
go build -o "$out/bin/bench" ./bench
exec "$out/bin/bench" "$@"
