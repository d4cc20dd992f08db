#!/usr/bin/env bash
# The benchmark's entry point:
#
#   perf/run.sh <workload|all|trace> [--seed N] [--seconds S] [--smoke]
#   perf/run.sh selftest [--smoke]
#   perf/run.sh compare A.json B.json
#
# Builds the harness in release mode and runs it from the repo root.
# Results land in perf/out/; see perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
