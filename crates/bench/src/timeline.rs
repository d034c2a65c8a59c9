//! `ps-bench timeline`: heal-timeline and time-series telemetry. Runs
//! the chaos workload and the 1013-node crash-and-heal with the sampler
//! and lease-renewal accounting enabled, reconstructs the heal timeline
//! (detection → quarantine → redeploy) from the trace event stream,
//! extracts per-connection critical paths, tabulates percentile
//! latencies from the log-bucketed histograms, and summarizes the
//! sampled utilization series. Writes `BENCH_timeline.json`.
//!
//! Also sweeps the lease detection interval (heartbeat / duration) to
//! show the failure-detection-latency vs renewal-traffic tradeoff.
//!
//! Every figure except the per-region planning wall time is virtual-time
//! derived, so two same-seed runs agree on all of them.

use crate::chaos::{run_chaos, ChaosBenchConfig, ChaosOutcome};
use crate::cli::Args;
use crate::harness::ns_ms;
use crate::record::{num, wall, Artifact, Record, Value};
use crate::scale::{run_heal_workload, scale_network, HealWorkloadOptions};
use ps_sim::SimDuration;
use ps_smock::LeaseConfig;
use ps_trace::{
    scope_critical_path, Event, HealTimeline, Metric, Registry, SamplerConfig, SeriesSummary,
    Tracer,
};
use std::collections::BTreeMap;

/// Wire bytes charged per lease renewal (spec id + instance id + MAC,
/// roughly a UDP heartbeat).
const RENEWAL_BYTES: u64 = 256;

/// Histograms worth a percentile row: virtual-time latencies only
/// (`_wall_` metrics make no determinism promise and stay out).
const LATENCY_HISTOGRAMS: [&str; 3] = ["server.connect_ms", "world.invoke_ms", "heal.redeploy_ms"];

/// One percentile row per latency histogram that saw a sample.
fn percentiles(registry: &Registry) -> Vec<Record> {
    LATENCY_HISTOGRAMS
        .iter()
        .filter_map(|name| registry.histogram(name).map(|h| (name, h)))
        .filter(|(_, h)| h.count > 0)
        .map(|(name, h)| {
            [
                ("p50", h.p50()),
                ("p90", h.p90()),
                ("p99", h.p99()),
                ("p999", h.p999()),
                ("min", h.min),
                ("max", h.max),
            ]
            .into_iter()
            .fold(
                Record::new()
                    .with("name", *name)
                    .with("count", h.count)
                    .with("mean", num(h.mean(), 4)),
                |r, (key, v)| r.with(key, num(v, 4)),
            )
        })
        .collect()
}

/// One row per sampled series.
fn series(series: &[(String, SeriesSummary)]) -> Vec<Record> {
    series
        .iter()
        .map(|(name, s)| {
            Record::new()
                .with("name", name.as_str())
                .with("points", s.points)
                .with("evicted", s.evicted)
                .with("suppressed", s.suppressed)
                .with("min", num(s.min, 6))
                .with("max", num(s.max, 6))
                .with("mean", num(s.mean(), 6))
                .with("last", num(s.last, 6))
        })
        .collect()
}

/// The heal timeline: passes, incidents and per-phase totals.
fn timeline(timeline: &HealTimeline) -> Record {
    let opt = |v: Option<u64>| Value::from(v.map(ns_ms));
    let incidents: Vec<Record> = timeline
        .incidents
        .iter()
        .map(|i| {
            Record::new()
                .with("node", i.node)
                .with("instances", i.instances)
                .with("crash_ms", opt(i.crash_ns))
                .with("detection_ms", opt(i.detection_ns()))
                .with("quarantine_ms", opt(i.quarantine_lag_ns()))
                .with("redeploy_ms", opt(i.redeploy_ns()))
                .with("recovery_ms", opt(i.recovery_ns()))
        })
        .collect();
    let phases: Vec<Record> = timeline
        .phase_totals()
        .iter()
        .map(|(phase, total_ns, n)| {
            Record::new()
                .with("phase", *phase)
                .with("total_ms", ns_ms(*total_ns))
                .with("incidents", *n)
        })
        .collect();
    Record::new()
        .with("passes", timeline.passes.len())
        .with("incidents", incidents)
        .with("phase_totals", phases)
}

/// Connection `scope`'s critical path; `path: null` when the scope
/// produced no spans (e.g. an abandoned connection).
fn critical_path(scope: &str, events: &[Event]) -> Record {
    let record = Record::new().with("scope", scope);
    let Some(path) = scope_critical_path(scope, events) else {
        return record.with("path", Value::Null);
    };
    let (dominant, dominant_ns) = path.dominant().unwrap_or(("", 0));
    let phases: Vec<Record> = path
        .phase_totals()
        .iter()
        .map(|(name, ns)| Record::new().with("phase", *name).with("ms", ns_ms(*ns)))
        .collect();
    record
        .with("total_ms", ns_ms(path.total_ns))
        .with("dominant", dominant)
        .with("dominant_ms", ns_ms(dominant_ns))
        .with("phases", phases)
}

/// Per-region planning attribution, read back from the
/// `planner.region.<site>.*` registry metrics: segment solves and memo
/// hits (seed-stable) and the wall time the region's solves cost.
fn regions(registry: &Registry) -> Vec<Record> {
    let mut rows: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (name, metric) in registry.snapshot() {
        let Some((region, kind)) = name
            .strip_prefix("planner.region.")
            .and_then(|rest| rest.rsplit_once('.'))
        else {
            continue;
        };
        let (segments, memo_hits, wall_us) = rows.entry(region.to_owned()).or_default();
        match (kind, metric) {
            ("segments", Metric::Counter(v)) => *segments = v,
            ("memo_hits", Metric::Counter(v)) => *memo_hits = v,
            ("plan_wall_us", Metric::Counter(v)) => *wall_us = v,
            _ => {}
        }
    }
    rows.into_iter()
        .map(|(region, (segments, memo_hits, wall_us))| {
            Record::new()
                .with("region", region)
                .with("segments", segments)
                .with("memo_hits", memo_hits)
                .with("plan_wall_us", wall(num(wall_us as f64, 1), Value::Null))
        })
        .collect()
}

/// One detection-interval sweep point: a chaos run under the given lease
/// parameters, reduced workload so the sweep stays quick.
fn sweep_point(heartbeat_ms: u64, duration_ms: u64) -> ChaosOutcome {
    run_chaos(
        &ChaosBenchConfig {
            seattle_ops: (600, 30),
            sd_ops: (600, 30),
            lease: LeaseConfig {
                duration: SimDuration::from_millis(duration_ms),
                heartbeat: SimDuration::from_millis(heartbeat_ms),
            },
            lease_renewal_bytes: RENEWAL_BYTES,
            ..ChaosBenchConfig::default()
        },
        &Tracer::disabled(),
    )
}

/// `ps-bench timeline`: writes `BENCH_timeline.json`.
pub fn command(_: &Args) -> Result<Artifact, String> {
    // ---- Leg 1: the 9-node chaos workload, fully instrumented. ----
    eprintln!("[timeline] chaos workload...");
    let (tracer, sink) = Tracer::memory();
    let chaos = run_chaos(
        &ChaosBenchConfig {
            sampler: Some(SamplerConfig::default()),
            lease_renewal_bytes: RENEWAL_BYTES,
            ..ChaosBenchConfig::default()
        },
        &tracer,
    );
    let events = sink.events();
    let chaos_timeline = HealTimeline::reconstruct(&events);
    assert!(
        !chaos_timeline.incidents.is_empty(),
        "chaos run must produce at least one incident"
    );
    assert_eq!(
        chaos_timeline.incidents[0].phases().len(),
        3,
        "the chaos crash must walk the full detection -> quarantine -> redeploy ladder, got {:?}",
        chaos_timeline.incidents[0]
    );
    let registry = tracer.registry().expect("enabled tracer has a registry");
    assert!(
        registry
            .histogram("world.invoke_ms")
            .is_some_and(|h| h.count > 0),
        "chaos run must record invoke latencies"
    );
    // conn-0 is the San Diego connect, conn-1 Seattle (connect order).
    let chaos_leg = Record::new()
        .with("nodes", 9u64)
        .with("seed", chaos.seed)
        .with("heal_passes", chaos.heal_passes)
        .with("lease_renewal_bytes", chaos.lease_renewal_bytes)
        .with("timeline", timeline(&chaos_timeline))
        .with(
            "critical_paths",
            vec![
                critical_path("conn-0", &events),
                critical_path("conn-1", &events),
            ],
        )
        .with("percentiles", percentiles(registry))
        .with("series", series(&chaos.series));

    // ---- Leg 2: the 1013-node crash-and-heal of `ps-bench scale`. ----
    eprintln!("[timeline] 1013-node heal workload...");
    let (scale_tracer, scale_sink) = Tracer::memory();
    // Same topology + workload seeds as the scale heal leg.
    let (net, server, client) = scale_network(1000, 8000);
    let scale = run_heal_workload(
        net,
        server,
        client,
        7000,
        &scale_tracer,
        &HealWorkloadOptions {
            sampler: Some(SamplerConfig::default()),
            lease_renewal_bytes: RENEWAL_BYTES,
            settle: Some(SimDuration::from_secs(30)),
            // Plan hierarchically so the run exercises the shared
            // region memo and populates the per-region planner metrics
            // attributed below.
            hier: true,
        },
    );
    let scale_events = scale_sink.events();
    let scale_timeline = HealTimeline::reconstruct(&scale_events);
    assert!(
        scale_timeline
            .incidents
            .iter()
            .any(|i| i.detection_ns().is_some() && i.quarantine_lag_ns().is_some()),
        "the 1013-node crash must be detected and quarantined, got {:?}",
        scale_timeline.incidents
    );
    let scale_registry = scale_tracer
        .registry()
        .expect("enabled tracer has a registry");
    let scale_regions = regions(scale_registry);
    assert!(
        !scale_regions.is_empty(),
        "hierarchical heal workload must populate planner.region.* metrics"
    );
    let scale_leg = Record::new()
        .with("nodes", scale.nodes)
        .with("crashed", scale.crashed.0)
        .with("heal_passes", scale.heal_passes)
        .with("lease_renewal_bytes", scale.lease_renewal_bytes)
        .with("timeline", timeline(&scale_timeline))
        .with(
            "critical_paths",
            vec![critical_path("conn-0", &scale_events)],
        )
        .with("percentiles", percentiles(scale_registry))
        .with("series", series(&scale.series))
        .with("regions", scale_regions);

    // ---- The lease detection-interval sweep. ----
    // Shorter heartbeats detect failures faster but renew more often.
    eprintln!("[timeline] detection-interval sweep...");
    let mut sweep = Vec::new();
    let mut last_detect = 0.0f64;
    for (hb, dur) in [
        (250u64, 1_000u64),
        (500, 2_000),
        (1_000, 4_000),
        (2_000, 8_000),
    ] {
        let out = sweep_point(hb, dur);
        let detect_ms = out
            .detection_latency()
            .expect("sweep point detects the crash")
            .as_millis_f64();
        assert!(
            detect_ms > last_detect,
            "detection latency must grow with the lease duration \
             ({detect_ms:.1}ms at {dur}ms lease, previous {last_detect:.1}ms)"
        );
        last_detect = detect_ms;
        sweep.push(
            Record::new()
                .with("heartbeat_ms", hb)
                .with("lease_ms", dur)
                .with("detect_ms", num(detect_ms, 4))
                .with(
                    "recover_ms",
                    out.recovery_latency().map(|d| num(d.as_millis_f64(), 4)),
                )
                .with("renewal_bytes", out.lease_renewal_bytes),
        );
    }

    let record = Record::new()
        .with("bench", "timeline_report")
        .with("chaos", chaos_leg)
        .with("scale", scale_leg)
        .with("sweep", sweep);
    let mut artifact = Artifact::new("ps-trace timeline report: heal phases, percentiles, series");
    artifact.file("BENCH_timeline.json", record);
    Ok(artifact)
}
