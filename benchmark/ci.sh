#!/usr/bin/env bash
# Gate for the benchmark package itself (the root `make verify` does not
# know this directory exists, on purpose).
#
#   ./ci.sh                      fmt, clippy -D warnings, unit tests, and a
#                                --smoke run: every workload and the traced
#                                pass at 1/50 size, each result line
#                                validated against BENCHMARK.json.
#   ./ci.sh --repeat 2 --check   all of the above, then two full-size sets
#                                at the same seed; fails unless every
#                                end-to-end metric agrees across the sets
#                                within its own bound.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

cargo fmt --check
cargo clippy --release --all-targets -- -D warnings
cargo test --release
cargo run --release --quiet -- --smoke

if [ "$#" -gt 0 ]; then
    cargo run --release --quiet -- --all "$@"
fi
