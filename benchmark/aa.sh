#!/usr/bin/env bash
# A/A: the whole suite twice on the same commit, then `compare`. Two sets of runs of the
# same code must agree within the benchmark's own bounds (no `worse`, no `unresolved`
# row); the spread this shows is what the bounds in BENCHMARK.json are derived from.
# Extra arguments (e.g. --seed 7) go to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh run --all --out aa-a.json "$@"
benchmark/run.sh run --all --out aa-b.json "$@"
benchmark/run.sh compare benchmark/out/aa-a.json benchmark/out/aa-b.json
