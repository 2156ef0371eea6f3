#!/usr/bin/env bash
# Builds pcbench from this checkout's sources into .bench_build/ and runs it:
#
#   bash bench/e2e/run.sh --workload hot-small --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last stdout line is pcbench's result
# object.  Fails (non-zero, no result) when the library sources are absent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target pcbench -j 4 >&2
exec "$build/pcbench" "$@"
