#!/usr/bin/env bash
# Smoke test for CI: build the benchmark offline, run every workload twice
# on seeds 1 and 2 and compare the exact outputs (op counts, virtual end
# times, ticket counts, journal digests) with golden.json. No timing.
# Under 30 s on a 2-core box. Run from anywhere; extra arguments
# (e.g. `--workload storm_small`) are passed on.
set -euo pipefail
cd "$(dirname "$0")/.."
# The journal workload records under <target dir>/benchmark and removes its
# directories itself; this catches the ones a killed run would leave.
trap 'rm -rf "${CARGO_TARGET_DIR:-benchmark/target}"/benchmark/journal-*' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke "$@"
