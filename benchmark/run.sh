#!/usr/bin/env bash
# Single entry point of the benchmark.
#
#   run.sh --workload W --seed S --seconds N --trace 0|1   one run; last stdout line is its JSON result
#   run.sh [--seed S] [--seconds N] [--repeat K]           every workload, untraced + traced -> out/results.json
#   run.sh --self-test                                      the benchmark's own unit tests
#
# Builds in release from the repository's sources (offline: every
# dependency is a path dependency), so it fails without a result in a
# directory that lacks them.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
if [[ "${1:-}" == "--self-test" ]]; then
    exec cargo test --release --offline --quiet
fi
exec cargo run --release --offline --quiet -- "$@"
