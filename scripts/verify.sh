#!/usr/bin/env bash
# Full offline verification pipeline: formatting, lints (clippy +
# ps-lint, the unsafe fence), build, tests (workspace, ps-mail again in
# release, and the benchmark package), bench smokes, and byte-identical
# determinism checks for every artifact-writing bench bin. Everything
# runs without network access.
#
# Usage:
#   scripts/verify.sh              # full pipeline
#   scripts/verify.sh --lint-only  # fmt + clippy + ps-lint, skip the rest
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$(pwd)"

lint_only=0
if [[ "${1:-}" == "--lint-only" ]]; then
    lint_only=1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The workspace has one `unsafe` block: the AVX2 dispatch in ps-mail's
# ChaCha20. Every crate root forbids unsafe code (ps-mail denies it), so
# the compiler refuses a second site outside ps-mail; inside it, a second
# `allow(unsafe_code)` must be a reviewed edit of this count, not drift.
echo "==> unsafe fence (every crate root fenced, allow(unsafe_code) exactly once)"
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs; do
    if ! grep -q '^#!\[\(forbid\|deny\)(unsafe_code)\]$' "$root"; then
        echo "$root lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
unsafe_allows="$(grep -r 'allow(unsafe_code)' crates src --include='*.rs' | wc -l)"
if [[ "$unsafe_allows" -ne 1 ]]; then
    echo "allow(unsafe_code) occurs $unsafe_allows times under crates/ src/, expected exactly 1" >&2
    exit 1
fi

echo "==> ps-lint (token rules + call-graph semantic passes)"
cargo run --release -q -p ps-lint

echo "==> ps-lint --list-allows (suppression inventory audit)"
cargo run --release -q -p ps-lint -- --list-allows

# The semantic analysis (parse -> call graph -> N001/P001/R001) must
# stay cheap enough for a pre-commit loop: budget 5 s end-to-end as
# reported by the lint's own stage timer.
echo "==> ps-lint wall-time budget (< 5000 ms total)"
lint_total_us="$(cargo run --release -q -p ps-lint -- --format json \
    | grep -o '"total": [0-9]*' | grep -o '[0-9]*')"
if [[ "$lint_total_us" -ge 5000000 ]]; then
    echo "ps-lint total stage time ${lint_total_us}us exceeds the 5s budget" >&2
    exit 1
fi

# Like the bench artifacts, the lint's JSON report must be
# byte-identical across runs in stable mode (timings zeroed).
echo "==> determinism: ps-lint --format json (stable mode, 2 runs, cmp)"
lint_tmp="$(mktemp -d)"
PS_STABLE_ARTIFACTS=1 cargo run --release -q -p ps-lint -- --format json > "$lint_tmp/a.json"
PS_STABLE_ARTIFACTS=1 cargo run --release -q -p ps-lint -- --format json > "$lint_tmp/b.json"
cmp "$lint_tmp/a.json" "$lint_tmp/b.json"
rm -rf "$lint_tmp"

if [[ "$lint_only" == "1" ]]; then
    echo "==> verify OK (lint only)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The wide ChaCha20 body is written for the optimiser: hold it to the
# scalar reference in the build that ships, not only in the debug one.
echo "==> cargo test -p ps-mail --release -q"
cargo test -p ps-mail --release -q

# `benchmark/` is a workspace of its own, so nothing above compiles it:
# build it against the crates as they now are and run its --quick sizing
# of every workload in both modes, so an API change cannot break the
# measuring stick unnoticed. Shares this repo's target directory, as
# `benchmark/run.sh` does, so the crates are not rebuilt.
echo "==> benchmark package: cargo test --release --offline (compiles it, --quick smoke of every workload)"
(cd benchmark && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target}" cargo test --release --offline -q)

# Two untraced runs and one traced run of every workload at --quick
# size: digests and every deterministic metric must come back identical,
# so a memo or cache that makes traced != untraced or run != run fails
# here rather than in the next benchmark.
echo "==> benchmark check-repeat --quick (digests + deterministic metrics, 2 untraced + 1 traced)"
bash benchmark/run.sh check-repeat --quick --seconds 1

echo "==> bench smoke: bench_planner (writes BENCH_planner.json)"
cargo run --release -q -p ps-bench --bin bench_planner

echo "==> trace smoke: trace_report (writes BENCH_trace.json)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p ps-bench --bin trace_report -- "$tmpdir/trace_smoke.jsonl"

echo "==> timeline smoke: timeline_report (writes BENCH_timeline.json)"
cargo run --release -q -p ps-bench --bin timeline_report

echo "==> chaos smoke: chaos_recovery (writes BENCH_chaos.json)"
cargo run --release -q -p ps-bench --bin chaos_recovery -- 42 "$tmpdir/chaos_smoke.jsonl"

echo "==> partition smoke: chaos_partition (writes BENCH_partition.json)"
cargo run --release -q -p ps-bench --bin chaos_partition -- 42 "$tmpdir/partition_smoke.jsonl"

# The scale bench self-asserts its acceptance gates: the composed plan
# reaches the flat optimum at every world size and, when timing is real,
# the cold hierarchical plan is at least 5x faster than flat at 1000
# routers.
echo "==> scale smoke: bench_scale (writes BENCH_scale.json)"
cargo run --release -q -p ps-bench --bin bench_scale

# Determinism gate: every artifact-writing bench bin runs twice under
# PS_STABLE_ARTIFACTS=1 (wall-clock fields zeroed) from separate scratch
# CWDs; every artifact must come back byte-identical. The published
# BENCH_*.json in the repo root keep real timings — only these scratch
# copies are normalized.
#
#   stable_twice <dir> <artifact[,artifact…]> <bin> [args…]
stable_twice() {
    local dir="$1" artifacts="$2" bin="$3" run artifact
    shift 3
    echo "==> determinism: $bin (stable mode, 2 runs, cmp ${artifacts//,/ + })"
    for run in a b; do
        mkdir -p "$tmpdir/$dir$run"
        (cd "$tmpdir/$dir$run" && PS_STABLE_ARTIFACTS=1 "$repo/target/release/$bin" "$@" > /dev/null)
    done
    for artifact in ${artifacts//,/ }; do
        cmp "$tmpdir/${dir}a/$artifact" "$tmpdir/${dir}b/$artifact"
    done
}

stable_twice p BENCH_planner.json bench_planner
stable_twice t BENCH_trace.json,trace.jsonl trace_report trace.jsonl
stable_twice c BENCH_chaos.json,chaos.jsonl chaos_recovery 42 chaos.jsonl
stable_twice n BENCH_partition.json,partition.jsonl chaos_partition 42 partition.jsonl
stable_twice s BENCH_scale.json bench_scale

# Hierarchical-planning perf-regression guard. Wall clocks are zeroed
# in stable mode, so the gate rides the deterministic work ratio
# (mappings + prunes + weighted Dijkstra rows and chain-bound pair
# reads, flat / hierarchical) for the 1013-node world: seed-stable,
# machine-independent, and far above the floor today (~29x), so a real
# regression — a blown-up candidate universe or a dead memo — trips it
# while noise cannot.
#
#   at_1013 <field>   the field's value in the stable 1013-router entry
at_1013() {
    grep -o '"routers": 1013.*' -z "$tmpdir/sa/BENCH_scale.json" \
        | tr -d '\0' | grep -o "\"$1\": [0-9.]*" | head -n1 | grep -o '[0-9.]*$'
}
echo "==> perf guard: hierarchical work speedup at 1013 nodes (>= 5x)"
hier_speedup="$(at_1013 work_speedup)"
if [[ -z "$hier_speedup" ]]; then
    echo "BENCH_scale.json has no work_speedup entry for the 1013-node world" >&2
    exit 1
fi
if ! awk -v s="$hier_speedup" 'BEGIN { exit !(s >= 5.0) }'; then
    echo "hierarchical work speedup ${hier_speedup}x at 1013 nodes fell below the 5x floor" >&2
    exit 1
fi
echo "    work speedup at 1013 nodes: ${hier_speedup}x"

# The chain bound must pay for itself on the flat path too: its pair
# reads are part of work_units, and flat work at 1013 routers stays at
# or below what the search cost before the bound existed.
echo "==> perf guard: flat work at 1013 nodes (<= 82950)"
work_flat="$(at_1013 work_flat)"
if [[ -z "$work_flat" ]] || (( work_flat > 82950 )); then
    echo "flat work at 1013 nodes is '${work_flat}', above the 82950 units the search cost without the chain bound" >&2
    exit 1
fi
echo "    flat work at 1013 nodes: ${work_flat}"

stable_twice l BENCH_timeline.json timeline_report

echo "==> verify OK"
