#!/usr/bin/env bash
# The one benchmark of the admission stack. Builds benchmark/ (its own
# cargo package; the root workspace and its Cargo.lock are untouched) and
# runs it from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       JSON result (end-to-end metrics with --trace 0, per-layer metrics
#       with --trace 1)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 1] [--quick] [--aa]
#       every workload, each in a process of its own; --quick is the smoke
#       mode, --aa runs everything twice and fails if a metric moves by
#       more than its bound
#
# Build output, journals and trace files go under $CARGO_TARGET_DIR
# (default target/benchmark): the same filesystem as the repository, so
# that sync_data is a real flush — a tmpfs would erase the fsync wall.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/hsched-benchmark" --tmp-dir "$target/tmp" "$@"
