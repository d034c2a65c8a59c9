//! Thousand-node scaling benchmark: flat vs hierarchical cold planning.
//!
//! For each world size (100, 250, 500, 1000 routers) this measures a
//! flat cold plan against the hierarchical gateway-composed one, cold
//! and memo-warm — identical objectives asserted. It also runs the full
//! self-healing stack through a chaos-style crash-and-recover workload
//! and an open-loop client population on the 1000-router world.
//!
//! Writes `BENCH_scale.json` (hand-rolled JSON, no serde in the tree)
//! to the current directory and prints the same numbers as a table.
//! Under `PS_STABLE_ARTIFACTS=1` every wall-clock-derived field is
//! zeroed so same-seed double runs are byte-identical.

#![forbid(unsafe_code)]

use ps_bench::scale::{
    measure_hier_plan, run_heal_workload, run_open_loop, scale_network, OpenLoopConfig,
};
use ps_trace::{Report, Tracer};
use std::fmt::Write as _;

/// Total routers per scaling step.
const WORLDS: [usize; 4] = [100, 250, 500, 1000];
/// Timed repetitions per measurement (fastest run reported).
const REPS: usize = 5;
/// Seed for all topologies and workloads.
const SEED: u64 = 7_000;

fn main() {
    let stable = ps_bench::stable_artifacts();
    // Stable runs zero every wall-clock field, so repeated timing reps
    // would only burn verify time.
    let reps = if stable { 1 } else { REPS };
    let mut report = Report::new("Thousand-node scaling: hierarchical planning");
    let mut entries = Vec::new();

    let mut hier_lines = Vec::new();
    for &routers in &WORLDS {
        let (net, server, client) = scale_network(routers, SEED + routers as u64);

        eprintln!("[bench_scale] {routers} routers: hierarchical plan...");
        let mut hier = measure_hier_plan(&net, server, client, reps);
        if !stable && routers >= 1000 {
            assert!(
                hier.wall_speedup() >= 5.0,
                "hierarchical cold plan speedup {:.1}x below 5x at {} nodes \
                 (flat {}us vs hier {}us)",
                hier.wall_speedup(),
                hier.nodes,
                hier.flat_us,
                hier.hier_cold_us
            );
        }
        // The composed plan ships unrefined because it reaches the flat
        // optimum on every world here; a shortfall is a finding.
        assert!(
            (hier.hier_objective - hier.flat_objective).abs()
                <= 1e-6 * hier.flat_objective.abs().max(1.0),
            "{routers} routers: hier objective {} diverged from flat optimum {}",
            hier.hier_objective,
            hier.flat_objective
        );

        let hier_wall_speedup = if stable {
            hier.flat_us = 0;
            hier.hier_cold_us = 0;
            hier.hier_warm_us = 0;
            0.0
        } else {
            hier.wall_speedup()
        };

        hier_lines.push(format!(
            "{:<8} {:>8} {:>10}u {:>10}u {:>10}u {:>7.1}x {:>8.1}x {:>5} {:>5} {:>8}",
            hier.nodes,
            hier.regions,
            hier.flat_us,
            hier.hier_cold_us,
            hier.hier_warm_us,
            hier_wall_speedup,
            hier.work_speedup(),
            hier.segments,
            hier.warm_memo_hits,
            hier.universe,
        ));

        let mut entry = String::new();
        write!(
            entry,
            "    {{\"routers\": {}, \"links\": {},\n      \
             \"hier\": {{\"regions\": {}, \"flat_us\": {}, \"cold_us\": {}, \"warm_us\": {}, \
             \"wall_speedup\": {:.3}, \"work_flat\": {}, \"work_hier\": {}, \
             \"work_speedup\": {:.3}, \"flat_objective\": {:.6}, \"hier_objective\": {:.6}, \
             \"segments\": {}, \"warm_memo_hits\": {}, \"universe\": {}}}}}",
            hier.nodes,
            net.link_count(),
            hier.regions,
            hier.flat_us,
            hier.hier_cold_us,
            hier.hier_warm_us,
            hier_wall_speedup,
            hier.work_flat,
            hier.work_hier,
            hier.work_speedup(),
            hier.flat_objective,
            hier.hier_objective,
            hier.segments,
            hier.warm_memo_hits,
            hier.universe,
        )
        .expect("write to string");
        entries.push(entry);
    }

    report.line(format!(
        "{:<8} {:>8} {:>11} {:>11} {:>11} {:>8} {:>9} {:>5} {:>5} {:>8}",
        "nodes",
        "regions",
        "flat plan",
        "hier cold",
        "hier warm",
        "spdup",
        "work",
        "segs",
        "hits",
        "universe"
    ));
    for line in &hier_lines {
        report.line(line.clone());
    }

    // The full self-healing stack on the largest world: crash a
    // mid-chain node, heal on a 1s cadence, leases as the detector.
    let routers = *WORLDS.last().expect("at least one world");
    eprintln!("[bench_scale] {routers} routers: heal workload...");
    let (net, server, client) = scale_network(routers, SEED + routers as u64);
    let tracer = Tracer::disabled();
    let mut heal = run_heal_workload(net, server, client, SEED, &tracer);
    assert!(
        heal.recovered_ms.is_some(),
        "1000-router heal workload did not recover within the horizon"
    );
    if stable {
        heal.wall_ms = 0.0;
    }
    report.line("");
    report.kv(
        "heal @1000 routers",
        format!(
            "crash detected {} ms, recovered {} ms (virtual), {} passes, {} replans",
            heal.detected_ms
                .map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            heal.recovered_ms
                .map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            heal.heal_passes,
            heal.replans,
        ),
    );

    // Open-loop client population against the hierarchical planner on
    // the largest world: Poisson arrivals thinned to a diurnal profile,
    // heavy-tailed session popularity over 100k+ logical clients.
    eprintln!("[bench_scale] {routers} routers: open-loop population...");
    let (mut ol_net, ol_server, _ol_client) = scale_network(routers, SEED + routers as u64);
    let ol_cfg = OpenLoopConfig::from_env(SEED, stable);
    let (ol_tracer, _ol_sink) = Tracer::memory();
    let mut open_loop = run_open_loop(&mut ol_net, ol_server, &ol_cfg, &ol_tracer);
    assert!(
        open_loop.plans > 0 && open_loop.cache_hits > 0,
        "open-loop run must both plan and hit its plan cache \
         ({} plans, {} cache hits)",
        open_loop.plans,
        open_loop.cache_hits
    );
    if stable {
        open_loop.wall_ms = 0.0;
        open_loop.connects_per_sec = 0.0;
        open_loop.plan_p50_ms = 0.0;
        open_loop.plan_p99_ms = 0.0;
        open_loop.plan_max_ms = 0.0;
    }
    report.line("");
    report.kv(
        "open loop",
        format!(
            "{} arrivals over {} logical clients ({} seen) on {} attach routers, \
             {:.1} virtual hours",
            open_loop.arrivals,
            open_loop.clients,
            open_loop.distinct_clients,
            open_loop.attach_routers,
            open_loop.virtual_hours,
        ),
    );
    report.kv(
        "open loop served",
        format!(
            "{} plans + {} cache hits, region memo {} hits / {} segments, \
             {:.0} connects/sec, plan p50 {:.2}ms p99 {:.2}ms",
            open_loop.plans,
            open_loop.cache_hits,
            open_loop.memo_hits,
            open_loop.memo_misses,
            open_loop.connects_per_sec,
            open_loop.plan_p50_ms,
            open_loop.plan_p99_ms,
        ),
    );
    report.kv(
        "open loop diurnal",
        format!(
            "peak hour {} arrivals, trough hour {}",
            open_loop.peak_hour_arrivals, open_loop.trough_hour_arrivals,
        ),
    );

    let opt = |v: Option<f64>| v.map_or_else(|| "null".to_owned(), |v| format!("{v:.3}"));
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"worlds\": [\n{}\n  ],\n  \
         \"heal_1000\": {{\"nodes\": {}, \"crashed\": {}, \"heal_passes\": {}, \
         \"replans\": {}, \"infeasible\": {}, \"detected_ms\": {}, \"recovered_ms\": {}, \
         \"wall_ms\": {:.3}}},\n  \
         \"open_loop\": {{\"clients\": {}, \"arrivals\": {}, \"distinct_clients\": {}, \
         \"attach_routers\": {}, \"plans\": {}, \"cache_hits\": {}, \"memo_hits\": {}, \
         \"memo_misses\": {}, \"virtual_hours\": {:.3}, \"peak_hour_arrivals\": {}, \
         \"trough_hour_arrivals\": {}, \"wall_ms\": {:.3}, \"connects_per_sec\": {:.0}, \
         \"plan_p50_ms\": {:.4}, \"plan_p99_ms\": {:.4}, \"plan_max_ms\": {:.4}}}\n}}\n",
        entries.join(",\n"),
        heal.nodes,
        heal.crashed.0,
        heal.heal_passes,
        heal.replans,
        heal.infeasible,
        opt(heal.detected_ms),
        opt(heal.recovered_ms),
        heal.wall_ms,
        open_loop.clients,
        open_loop.arrivals,
        open_loop.distinct_clients,
        open_loop.attach_routers,
        open_loop.plans,
        open_loop.cache_hits,
        open_loop.memo_hits,
        open_loop.memo_misses,
        open_loop.virtual_hours,
        open_loop.peak_hour_arrivals,
        open_loop.trough_hour_arrivals,
        open_loop.wall_ms,
        open_loop.connects_per_sec,
        open_loop.plan_p50_ms,
        open_loop.plan_p99_ms,
        open_loop.plan_max_ms,
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    report.kv("wrote", "BENCH_scale.json");
    println!("{report}");
}
