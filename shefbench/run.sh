#!/usr/bin/env bash
# Builds shefbench from this checkout's sources and runs one workload:
#
#   bash shefbench/run.sh --workload kv-hot --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, result documents and span files all go under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/shefbench" && go build -o "$out/shefbench" .)
cd "$root"
exec "$out/shefbench" -out "$out" "$@"
