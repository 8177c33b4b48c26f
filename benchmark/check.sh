#!/usr/bin/env bash
# Lints, unit-tests and smoke-runs the benchmark package. Ready to be a CI
# step (`bash benchmark/check.sh`); the workflow file itself lies outside
# this directory and is not touched by the PR that added the benchmark.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
# Every workload, untraced and traced, tiny inputs, same code paths;
# fails on any wrong output.
cargo run --offline --release --quiet -- --all --smoke --trace 1
