#!/usr/bin/env bash
# The one command: builds the benchmark package from source and runs it.
#
#   benchmark/run.sh [run|trace|check-repeat] [--workload W] [--seed N]
#                    [--seconds S] [--trace 0|1] [--quick]
#
# With no --workload every workload runs. The last line printed for a
# workload is its result as one JSON object. Exits non-zero when the
# build fails or an output is incorrect.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ps-benchmark" "$@" --out "$here/out"
