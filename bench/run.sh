#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build `cqd` from the
# repository's sources and `cqbench` from this package, then run one
# workload. Arguments are passed through to cqbench:
#
#   bash bench/run.sh --workload warm_read --seed 7 --seconds 10 --trace 0
#
# Builds go to $CARGO_TARGET_DIR when it is set (the driver sets it),
# else to target/ and bench/target/. Nothing is printed on stdout but
# cqbench's own output, whose last line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    cqd="$CARGO_TARGET_DIR/release/cqd"
    cqbench="$CARGO_TARGET_DIR/release/cqbench"
else
    cqd="target/release/cqd"
    cqbench="bench/target/release/cqbench"
fi

cargo build --release --offline --quiet -p cq-server --bin cqd
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

exec "$cqbench" --cqd "$cqd" "$@"
