//! Chaos-recovery bench: the mail case study under a seeded fault
//! schedule, healed automatically — writes `BENCH_chaos.json`.
//!
//! Usage: `chaos_recovery [SEED] [JSONL_PATH]`
//!
//! The San Diego client node crashes mid-workload; leases detect the
//! failure, the healer quarantines the node and re-deploys the Seattle
//! connection (which was chaining through San Diego's instances), and
//! the Seattle driver finishes its workload — with zero manual
//! `connect` calls. Pass `JSONL_PATH` to also dump the full trace
//! stream; two same-seed runs write byte-identical JSON and JSONL.

#![forbid(unsafe_code)]

use ps_bench::chaos::{outcome_json, run_chaos, ChaosBenchConfig};
use ps_trace::{Report, Tracer};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("SEED must be an integer"))
        .unwrap_or(42);
    let jsonl_path = args.next();

    let (tracer, sink) = Tracer::memory();
    let config = ChaosBenchConfig {
        seed,
        ..ChaosBenchConfig::default()
    };
    let outcome = run_chaos(&config, &tracer);

    // The headline claim: automatic recovery. The crash kills the San
    // Diego connection outright (its client died) and guts the Seattle
    // connection's mid-chain; healing must restore Seattle to service
    // without any manual reconnect.
    assert!(outcome.sd_abandoned, "SD connection should be abandoned");
    assert!(
        outcome.detected_at.is_some(),
        "lease expiry should detect the crash"
    );
    assert!(outcome.replans >= 1, "healer should redeploy Seattle");
    assert!(
        outcome.seattle.done,
        "Seattle workload should finish after recovery"
    );
    assert!(
        outcome.seattle.completed > outcome.seattle.completed_before_crash,
        "Seattle should complete operations after the crash"
    );

    let mut report = Report::new("chaos_recovery: crash, detect, heal");
    report.section("fault");
    report.kv("seed", format!("{seed}"));
    report.kv(
        "crash_at",
        format!("{:.1}s", outcome.crash_at.as_secs_f64()),
    );
    report.kv(
        "detected_after",
        outcome
            .detection_latency()
            .map_or("-".into(), |d| format!("{d}")),
    );
    report.section("recovery");
    report.kv(
        "serving_again_after",
        outcome
            .recovery_latency()
            .map_or("-".into(), |d| format!("{d}")),
    );
    report.kv("replans", format!("{}", outcome.replans));
    report.kv("heal_passes", format!("{}", outcome.heal_passes));
    report.kv(
        "quarantined",
        format!(
            "{:?}",
            outcome.quarantined.iter().map(|n| n.0).collect::<Vec<_>>()
        ),
    );
    report.section("seattle (recovered)");
    report.kv("completed", format!("{}", outcome.seattle.completed));
    report.kv(
        "completed_before_crash",
        format!("{}", outcome.seattle.completed_before_crash),
    );
    report.kv("lost_to_retries", format!("{}", outcome.seattle.lost));
    report.kv("done", format!("{}", outcome.seattle.done));
    report.section("san diego (abandoned with its client node)");
    report.kv("completed", format!("{}", outcome.sd.completed));
    report.kv("lost", format!("{}", outcome.sd.lost));
    print!("{}", report.render());

    let json = outcome_json(&outcome);
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");

    if let Some(path) = jsonl_path {
        std::fs::write(&path, sink.to_jsonl()).expect("write JSONL dump");
        println!("wrote {path}");
    }
}
