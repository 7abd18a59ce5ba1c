#!/usr/bin/env bash
# Everything CI would run for this package, which the repository's own
# CI does not see (it is not a workspace member): format, lints, unit
# tests, and every workload end to end at ~1/20 size.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
(cd .. && cargo build --release --offline -p cq-server --bin cqd)
# the result document goes to stdout; the per-workload summary to stderr
cargo run --release --offline -- --quick --traced > /dev/null
