#!/usr/bin/env bash
# Full offline verification pipeline: formatting, lints (clippy, rustdoc
# links, ps-lint, the unsafe fence, unused ps-* dependencies), build,
# tests (the root package, then every other workspace member, each test
# once; ps-mail again in release; and the benchmark package), the
# benchmark's repeat check with its digests against their pin, every
# ps-bench artifact run twice in stable mode and compared byte for byte,
# the event streams against their pinned digests, and three
# deterministic planner work guards.
# Everything runs without network access.
#
# Usage:
#   scripts/verify.sh              # full pipeline
#   scripts/verify.sh --lint-only  # fmt + clippy + rustdoc + fences + ps-lint, skip the rest
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

# Deleting or privatising an item leaves intra-doc links to it behind;
# rustdoc reports them (unresolved, or public docs linking a private
# item) and this step fails on any.
echo "==> cargo doc -D warnings (intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The workspace's `unsafe` lives in one module: the body dispatch of
# ps-mail's ChaCha20 (the two `#[target_feature]` calls and the AVX-512
# body's loads and stores, each with a `// SAFETY:` comment that clippy's
# `undocumented_unsafe_blocks` demands). Every crate root forbids unsafe
# code (ps-mail denies it), so the compiler refuses a site outside
# ps-mail; inside it, a second `allow(unsafe_code)` must be a reviewed
# edit of this count, not drift.
echo "==> unsafe fence (every crate root fenced, allow(unsafe_code) exactly once)"
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs; do
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

# A `ps-*` dependency its crate never names only lengthens the build
# graph and hides which layer uses which: every one a workspace manifest
# declares (normal, dev or build) must be named as `ps_*` in that
# crate's sources, tests, benches or examples.
echo "==> dependency gate (every ps-* dependency named by its crate)"
unused_deps=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    crate="$(dirname "$manifest")"
    dirs=()
    for d in src tests benches examples; do
        if [[ -d "$crate/$d" ]]; then dirs+=("$crate/$d"); fi
    done
    for dep in $(awk '/^\[/ { deps = /dependencies\]$/ && !/^\[workspace/ }
                      deps && /^ps-/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        if ! grep -rqw "${dep//-/_}" "${dirs[@]}"; then
            echo "$manifest: $dep is never named as ${dep//-/_} in $crate" >&2
            unused_deps=1
        fi
    done
done
if [[ "$unused_deps" -ne 0 ]]; then
    exit 1
fi

echo "==> ps-lint (token rules + call-graph semantic passes)"
cargo run --release -q -p ps-lint

# Every suppression must still cover a finding: an allow left behind by
# moved or deleted code, or one the call graph no longer reaches, reads
# [UNUSED] and fails here.
echo "==> ps-lint --list-allows (suppression inventory audit, 0 unused)"
allows="$(cargo run --release -q -p ps-lint -- --list-allows)"
echo "$allows"
if ! grep -q ', 0 unused$' <<< "$allows"; then
    echo "ps-lint --list-allows reports unused suppressions" >&2
    exit 1
fi

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

# The root package's tests ran just above; the rest of the workspace
# runs here, so each test runs once.
echo "==> cargo test --workspace --exclude partitionable-services -q"
cargo test --workspace --exclude partitionable-services -q

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
repeat_log="$(mktemp)"
bash benchmark/run.sh check-repeat --quick --seconds 1 | tee "$repeat_log"

# Same seed => same benchmark digests across commits, as for the event
# streams below: the `digests` line check-repeat printed for each
# workload must match scripts/benchmark_digests.txt. A change that moves
# a digest on purpose updates the pin and says why in CHANGES.md.
echo "==> determinism: benchmark digests match scripts/benchmark_digests.txt"
awk '/^# / { workload = $2 } /^digests / { print workload, $2, $3 }' "$repeat_log" \
    | diff <(grep -v '^#' scripts/benchmark_digests.txt) -
rm -f "$repeat_log"

# Bench smoke and determinism gate in one. `ps-bench artifacts` runs
# every BENCH_*.json writer with its event stream. Stable mode only
# changes how host-clock figures are written, so a stable run executes
# everything a measured run does, the scale bench's self-asserted gates
# included (the composed plan reaches the flat optimum at every size;
# the cold hierarchical plan is >= 5x faster at 1000 routers). Two runs
# from separate scratch directories must agree byte for byte, printed
# reports included. Nothing here rewrites the committed BENCH_*.json:
# `ps-bench artifacts` from the repo root refreshes them.
echo "==> determinism: ps-bench artifacts (stable mode, 2 runs, diff -r)"
cargo build --release -q -p ps-bench
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for run in a b; do
    mkdir "$tmpdir/$run"
    (cd "$tmpdir/$run" && PS_STABLE_ARTIFACTS=1 "$repo/target/release/ps-bench" artifacts > report.txt)
done
diff -r "$tmpdir/a" "$tmpdir/b"

# Same seed => same bytes across commits, not only across two runs of
# one build: the stable-mode event streams must hash to the digests
# pinned in scripts/event_streams.sha256. A change that moves a stream on
# purpose updates the pin and says why in CHANGES.md.
echo "==> determinism: event streams match scripts/event_streams.sha256"
(cd "$tmpdir/a" && sha256sum --check --quiet "$repo/scripts/event_streams.sha256")

# Hierarchical-planning perf-regression guard. Wall clocks are stand-ins
# in stable mode, so the gate rides the deterministic work ratio
# (mappings + prunes + weighted Dijkstra rows and chain-bound pair
# reads, flat / hierarchical) for the 1013-node world: seed-stable,
# machine-independent, and far above the floor today (~29x), so a real
# regression — a blown-up candidate universe or a dead memo — trips it
# while noise cannot.
#
#   at_1013 <field>   the field's value in the stable 1013-router entry
at_1013() {
    grep -o '"routers": 1013.*' -z "$tmpdir/a/BENCH_scale.json" \
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

# A warm hierarchical solve starts from its memo's recent plans: the
# seeded incumbent may only cut, so at 1013 routers it does no more work
# than the cold one.
echo "==> perf guard: warm hierarchical work at 1013 nodes (<= cold)"
work_warm="$(at_1013 work_warm)"
work_hier="$(at_1013 work_hier)"
if [[ -z "$work_warm" || -z "$work_hier" ]] || (( work_warm > work_hier )); then
    echo "warm hierarchical work at 1013 nodes is '${work_warm}', above the cold solve's '${work_hier}'" >&2
    exit 1
fi
echo "    warm / cold hierarchical work at 1013 nodes: ${work_warm} / ${work_hier}"

# The suffix bound scans each (parent set, child set) edge's host pairs
# once per solve; the plan memo's least-RTT table answers every later
# graph. The cold hierarchical plan at 1013 routers scans 573 pairs; a
# lost or mis-keyed table multiplies that, and the guard allows 10 %.
echo "==> perf guard: least-RTT pairs of the cold hierarchical plan at 1013 nodes (<= 630)"
bound_pairs="$(at_1013 bound_pairs)"
if [[ -z "$bound_pairs" ]] || (( bound_pairs > 630 )); then
    echo "the cold hierarchical plan at 1013 nodes scanned '${bound_pairs}' least-RTT pairs, more than 10 % above the 573 pinned" >&2
    exit 1
fi
echo "    least-RTT pairs at 1013 nodes: ${bound_pairs}"

# Route rows run on one compact routing view per route table, patched
# from the network's journal at each epoch's first row question and
# rebuilt only for an added link or node or a journal gap. The 1013-node
# heal workload's world builds the view once, at its first connect; a
# second route table or view per connect, pass or redeploy shows here.
# It reads all its rows at one network epoch, so a view rebuilt at
# every epoch is caught by tests/serving_memo.rs::heal_run, whose
# schedule crosses epochs, not here.
echo "==> perf guard: routing view builds of the 1013-node heal workload (== 1)"
view_builds="$(grep -oz '"heal_1000": {[^}]*}' "$tmpdir/a/BENCH_scale.json" \
    | tr -d '\0' | grep -o '"view_builds": [0-9]*' | grep -o '[0-9]*$')"
if [[ "$view_builds" != 1 ]]; then
    echo "the 1013-node heal workload built its routing view '${view_builds}' times, not once" >&2
    exit 1
fi
echo "    routing view builds of the heal workload: ${view_builds}"

# Region shortlists and condition-1 admissions are keyed on what they
# read: the registration and the request environment, never the live
# instances. The 1013-node heal workload plans hierarchically; its
# connect computes 12 shortlists and its heal replan, over a live set
# the connect never saw, reuses every one. A key that holds the live
# instances again recomputes them all at the replan (24).
echo "==> perf guard: shortlists computed by the 1013-node heal workload (<= 12)"
segments="$(grep -oz '"heal_1000": {[^}]*}' "$tmpdir/a/BENCH_scale.json" \
    | tr -d '\0' | grep -o '"segments": [0-9]*' | grep -o '[0-9]*$')"
if [[ -z "$segments" ]] || (( segments > 12 )); then
    echo "the 1013-node heal workload computed '${segments}' region shortlists, more than the 12 pinned" >&2
    exit 1
fi
echo "    shortlists computed by the heal workload: ${segments}"

# Event-driven healing guard: a heal pass runs at each wake (a liveness
# event entering the world's stream) plus ps_core::HEAL_DEBOUNCE, never
# on a tick, so the partition run degrades and reconciles within one
# debounce of the split and of the restore. A polling loop creeping back
# in would show here as its period.
#
#   partition_ms <object> <field>   a figure of the stable BENCH_partition.json
partition_ms() {
    grep -oz "\"$1\": {[^}]*}" "$tmpdir/a/BENCH_partition.json" \
        | tr -d '\0' | grep -o "\"$2\": [0-9.]*" | grep -o '[0-9.]*$'
}
debounce_ms=0 # HEAL_DEBOUNCE in crates/core/src/heal.rs
echo "==> heal guard: partition recovery within the heal debounce (<= ${debounce_ms} ms)"
for figure in "degraded latency_after_split_ms" "reconcile latency_after_restore_ms"; do
    # shellcheck disable=SC2086 # the object and the field, two words
    value="$(partition_ms $figure)"
    if [[ -z "$value" ]] || ! awk -v v="$value" -v d="$debounce_ms" 'BEGIN { exit !(v <= d) }'; then
        echo "BENCH_partition.json ${figure/ /.} is '${value}' ms, above the ${debounce_ms} ms heal debounce" >&2
        exit 1
    fi
    echo "    ${figure/ /.}: ${value} ms"
done

echo "==> verify OK"
