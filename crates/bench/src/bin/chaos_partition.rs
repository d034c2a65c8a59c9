//! Partition bench: the case-study WAN splits mid-workload, both sides
//! stay served, and the merge reconciles — writes `BENCH_partition.json`.
//!
//! Usage: `chaos_partition [SEED] [JSONL_PATH]`
//!
//! A correlated fault domain severs every WAN leg of the Seattle
//! gateway; the healer deploys a degraded detached-view chain inside
//! the minority component (writes buffer locally, reads serve from
//! cache) while the majority side keeps its full chain. When the legs
//! come back the healer reconciles: a cold re-plan on the merged
//! network, the detached view's buffer drained upstream, the duplicate
//! instances retired. Pass `JSONL_PATH` to also dump the trace stream;
//! two same-seed runs write byte-identical JSON and JSONL.

#![forbid(unsafe_code)]

use ps_bench::partition::{partition_json, run_partition, PartitionBenchConfig};
use ps_trace::{Report, Tracer};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("SEED must be an integer"))
        .unwrap_or(42);
    let jsonl_path = args.next();

    let (tracer, sink) = Tracer::memory();
    let config = PartitionBenchConfig {
        seed,
        ..PartitionBenchConfig::default()
    };
    let outcome = run_partition(&config, &tracer);

    // The headline claims: during the split *both* sides are served —
    // the majority untouched, the minority on a local degraded chain —
    // and the merge reconciles back to the cold-plan optimum with the
    // duplicates retired and nothing lost on the majority side.
    assert_eq!(outcome.sd.lost, 0, "majority side must lose nothing");
    assert!(
        outcome.sd_during_split > 0,
        "majority side keeps operating through the split"
    );
    assert!(
        outcome.degraded_at.is_some(),
        "minority side should get a degraded chain"
    );
    assert!(
        outcome.seattle_during_split > 0,
        "minority side should be served during the split"
    );
    assert!(
        outcome.reconciled_at.is_some(),
        "the merge should reconcile"
    );
    assert!(
        outcome.retired > 0,
        "reconcile should retire the degraded duplicates"
    );
    if let Some(reconciled) = outcome.reconciled_latency_ms {
        assert!(
            (reconciled - outcome.initial_latency_ms).abs() < 1e-9,
            "reconciled plan should converge to the cold-plan optimum"
        );
    }

    let mut report = Report::new("chaos_partition: split, serve both sides, reconcile");
    report.section("partition");
    report.kv("seed", format!("{seed}"));
    report.kv(
        "split_at",
        format!("{:.1}s", outcome.split_at.as_secs_f64()),
    );
    report.kv(
        "restore_at",
        format!("{:.1}s", outcome.restore_at.as_secs_f64()),
    );
    report.kv(
        "degraded_after",
        outcome
            .degraded_latency()
            .map_or("-".into(), |d| format!("{d}")),
    );
    report.kv(
        "degraded_epoch",
        outcome
            .degraded_epoch
            .map_or("-".into(), |e| format!("{e}")),
    );
    report.section("reconcile");
    report.kv(
        "reconciled_after_restore",
        outcome
            .reconcile_latency()
            .map_or("-".into(), |d| format!("{d}")),
    );
    report.kv("retired_duplicates", format!("{}", outcome.retired));
    report.kv(
        "plan_latency",
        format!(
            "{} -> {} -> {} ms",
            outcome.initial_latency_ms,
            outcome
                .degraded_latency_ms
                .map_or("-".into(), |l| format!("{l}")),
            outcome
                .reconciled_latency_ms
                .map_or("-".into(), |l| format!("{l}")),
        ),
    );
    report.section("seattle (minority, degraded)");
    report.kv("completed", format!("{}", outcome.seattle.completed));
    report.kv("during_split", format!("{}", outcome.seattle_during_split));
    report.kv("lost", format!("{}", outcome.seattle.lost));
    report.kv("done", format!("{}", outcome.seattle.done));
    report.section("san diego (majority, untouched)");
    report.kv("completed", format!("{}", outcome.sd.completed));
    report.kv("during_split", format!("{}", outcome.sd_during_split));
    report.kv("lost", format!("{}", outcome.sd.lost));
    report.kv("done", format!("{}", outcome.sd.done));
    print!("{}", report.render());

    let json = partition_json(&outcome);
    std::fs::write("BENCH_partition.json", &json).expect("write BENCH_partition.json");
    println!("wrote BENCH_partition.json");

    if let Some(path) = jsonl_path {
        std::fs::write(&path, sink.to_jsonl()).expect("write JSONL dump");
        println!("wrote {path}");
    }
}
