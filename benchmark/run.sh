#!/usr/bin/env bash
# The one command of BENCHMARK.json: build the benchmark package from
# source, then hand it the arguments.
#
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       one run; the last line of stdout is the result JSON
#   benchmark/run.sh [--seed N] [--seconds T]
#       every workload, untraced then traced; prints every metric by name
#       with its unit; exits non-zero on a failed op, a non-finite value,
#       a bad name or a thread pin that did not take
#   benchmark/run.sh --aa [--runs K] [--seconds T]
#       two interleaved sets of runs of this build, compared under the
#       benchmark's own bounds; records benchmark/out/aa.json
#
# Runs from the repository root (goldens are read from results/, traces go
# to benchmark/out/). Build output goes where cargo is told to put it:
# benchmark/target/ unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --quiet --release --offline --locked \
    --manifest-path benchmark/Cargo.toml -- "$@"
