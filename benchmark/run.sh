#!/usr/bin/env bash
# The one command. With no arguments: build, run the four workloads untraced and traced
# (one OS process each), check every answer, print every metric and write
# benchmark/out/results.json. With arguments they are passed through, e.g.
#   benchmark/run.sh --workload serve-read --seed 7 --seconds 24 --trace 0
#   benchmark/run.sh trace --workload offline-random
#   benchmark/run.sh compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
if [ "$#" -eq 0 ]; then set -- run --all; fi
# cargo's own progress goes to stderr, so stdout stays the benchmark's.
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
