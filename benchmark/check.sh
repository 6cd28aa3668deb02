#!/usr/bin/env bash
# Smoke check of the benchmark, ready to be wired into CI: a quick run of every
# workload, untraced and traced, held against BENCHMARK.json. Fails unless
# every metric the manifest names is printed exactly once, with its unit, by
# every run it applies to, every output was correct, and nothing failed.
# Run it from anywhere: paths are taken from where this script lies.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- check "$here/../BENCHMARK.json"
