#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument passes
# through, e.g.
#   bash benchmark/run.sh --workload cell-closed --seed 1 --seconds 10 --trace 0
# Run from anywhere: it works in the checkout that contains it, and
# builds into that checkout's _build directory.
set -euo pipefail
cd "$(dirname "$0")/.."
# the dune cache lives outside the checkout; keep every write inside it
export DUNE_CACHE=disabled
dune build --root . --profile release --display quiet ./benchmark/tbwf_bench.exe >&2
exec ./_build/default/benchmark/tbwf_bench.exe "$@"
