//! Heal-timeline and time-series telemetry report: runs the chaos
//! workload and the 1013-node crash-and-heal with the sampler and
//! lease-renewal accounting enabled, reconstructs the heal timeline
//! (detection → quarantine → redeploy) from the trace event stream,
//! extracts per-connection critical paths, tabulates percentile
//! latencies from the log-bucketed histograms, and summarizes the
//! sampled utilization series. Writes `BENCH_timeline.json`.
//!
//! Also sweeps the lease detection interval (heartbeat / duration) to
//! show the failure-detection-latency vs renewal-traffic tradeoff.
//!
//! Every value in `BENCH_timeline.json` except the per-region planning
//! wall time is virtual-time derived, so two same-seed runs are
//! byte-identical; in stable-artifact mode (`PS_STABLE_ARTIFACTS=1`)
//! that field is written as `null`, which `verify.sh` checks with a
//! double-run `cmp`.

#![forbid(unsafe_code)]

use ps_bench::chaos::{run_chaos, ChaosBenchConfig, ChaosOutcome};
use ps_bench::scale::{run_heal_workload, scale_network, HealWorkloadOptions};
use ps_sim::SimDuration;
use ps_smock::LeaseConfig;
use ps_trace::{
    scope_critical_path, Event, HealTimeline, Registry, Report, SamplerConfig, SeriesSummary,
    Tracer,
};
use std::fmt::Write as _;

/// Wire bytes charged per lease renewal (spec id + instance id + MAC,
/// roughly a UDP heartbeat).
const RENEWAL_BYTES: u64 = 256;

/// Histograms worth a percentile row: virtual-time latencies only
/// (`_wall_` metrics make no determinism promise and stay out).
const LATENCY_HISTOGRAMS: [&str; 3] = ["server.connect_ms", "world.invoke_ms", "heal.redeploy_ms"];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

/// One percentile row rendered from a registry histogram.
fn percentile_rows(registry: &Registry) -> Vec<(String, ps_trace::Histogram)> {
    LATENCY_HISTOGRAMS
        .iter()
        .filter_map(|name| registry.histogram(name).map(|h| (name.to_string(), h)))
        .filter(|(_, h)| h.count > 0)
        .collect()
}

fn percentile_json(rows: &[(String, ps_trace::Histogram)]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|(name, h)| {
            format!(
                "      {{\"name\": \"{name}\", \"count\": {}, \"mean\": {:.4}, \
                 \"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}, \"p999\": {:.4}, \
                 \"min\": {:.4}, \"max\": {:.4}}}",
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                h.min,
                h.max,
            )
        })
        .collect();
    format!("[\n{}\n    ]", entries.join(",\n"))
}

fn series_json(series: &[(String, SeriesSummary)]) -> String {
    let entries: Vec<String> = series
        .iter()
        .map(|(name, s)| {
            format!(
                "      {{\"name\": \"{name}\", \"points\": {}, \"evicted\": {}, \
                 \"suppressed\": {}, \"min\": {:.6}, \"max\": {:.6}, \"mean\": {:.6}, \
                 \"last\": {:.6}}}",
                s.points,
                s.evicted,
                s.suppressed,
                s.min,
                s.max,
                s.mean(),
                s.last,
            )
        })
        .collect();
    if entries.is_empty() {
        "[]".to_owned()
    } else {
        format!("[\n{}\n    ]", entries.join(",\n"))
    }
}

fn timeline_json(timeline: &HealTimeline) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |ns| format!("{:.4}", ms(ns)));
    let incidents: Vec<String> = timeline
        .incidents
        .iter()
        .map(|i| {
            format!(
                "      {{\"node\": {}, \"instances\": {}, \"crash_ms\": {}, \
                 \"detection_ms\": {}, \"quarantine_ms\": {}, \"redeploy_ms\": {}, \
                 \"recovery_ms\": {}}}",
                i.node,
                i.instances,
                opt(i.crash_ns),
                opt(i.detection_ns()),
                opt(i.quarantine_lag_ns()),
                opt(i.redeploy_ns()),
                opt(i.recovery_ns()),
            )
        })
        .collect();
    let phases: Vec<String> = timeline
        .phase_totals()
        .iter()
        .map(|(phase, total_ns, n)| {
            format!(
                "      {{\"phase\": \"{phase}\", \"total_ms\": {:.4}, \"incidents\": {n}}}",
                ms(*total_ns)
            )
        })
        .collect();
    format!(
        "{{\"passes\": {}, \"incidents\": [\n{}\n    ],\n    \"phase_totals\": [\n{}\n    ]}}",
        timeline.passes.len(),
        incidents.join(",\n"),
        phases.join(",\n"),
    )
}

/// Critical-path JSON for one connection scope; `null` when the scope
/// produced no spans (e.g. an abandoned connection).
fn critical_json(scope: &str, events: &[Event]) -> String {
    let Some(path) = scope_critical_path(scope, events) else {
        return format!("{{\"scope\": \"{scope}\", \"path\": null}}");
    };
    let (dom_name, dom_ns) = path.dominant().unwrap_or(("", 0));
    let phases: Vec<String> = path
        .phase_totals()
        .iter()
        .map(|(name, ns)| format!("{{\"phase\": \"{name}\", \"ms\": {:.4}}}", ms(*ns)))
        .collect();
    format!(
        "{{\"scope\": \"{scope}\", \"total_ms\": {:.4}, \"dominant\": \"{dom_name}\", \
         \"dominant_ms\": {:.4}, \"phases\": [{}]}}",
        ms(path.total_ns),
        ms(dom_ns),
        phases.join(", "),
    )
}

/// Renders the shared per-leg report sections (timeline, percentiles,
/// series) into the human report.
fn report_leg(
    report: &mut Report,
    timeline: &HealTimeline,
    rows: &[(String, ps_trace::Histogram)],
    series: &[(String, SeriesSummary)],
) {
    for incident in &timeline.incidents {
        let phase_str = incident
            .phases()
            .iter()
            .map(|(phase, ns)| format!("{phase} {:.1}ms", ms(*ns)))
            .collect::<Vec<_>>()
            .join(" -> ");
        report.kv(
            format!("incident node {}", incident.node),
            if phase_str.is_empty() {
                "no recovery observed".to_owned()
            } else {
                phase_str
            },
        );
    }
    report.line(format!(
        "  {:<20} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "latency", "count", "mean", "p50", "p90", "p99", "max"
    ));
    for (name, h) in rows {
        report.line(format!(
            "  {:<20} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name,
            h.count,
            h.mean(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max
        ));
    }
    for (name, s) in series {
        report.kv(
            format!("series {name}"),
            format!(
                "{} pts (evicted {}, suppressed {}) min {:.3} max {:.3} mean {:.3}",
                s.points,
                s.evicted,
                s.suppressed,
                s.min,
                s.max,
                s.mean()
            ),
        );
    }
}

/// One region's share of the hierarchical planner's work, read back
/// from the `planner.region.<site>.*` registry metrics.
struct RegionRow {
    region: String,
    segments: u64,
    memo_hits: u64,
    plan_wall_us: f64,
}

/// Collects per-region planning metrics from a registry snapshot.
fn region_planning_rows(registry: &Registry) -> Vec<RegionRow> {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<String, RegionRow> = BTreeMap::new();
    for (name, metric) in registry.snapshot() {
        let Some(rest) = name.strip_prefix("planner.region.") else {
            continue;
        };
        let Some((region, kind)) = rest.rsplit_once('.') else {
            continue;
        };
        let row = rows.entry(region.to_owned()).or_insert_with(|| RegionRow {
            region: region.to_owned(),
            segments: 0,
            memo_hits: 0,
            plan_wall_us: 0.0,
        });
        match (kind, metric) {
            ("segments", ps_trace::Metric::Counter(v)) => row.segments = v,
            ("memo_hits", ps_trace::Metric::Counter(v)) => row.memo_hits = v,
            ("plan_wall_us", ps_trace::Metric::Counter(v)) => row.plan_wall_us = v as f64,
            _ => {}
        }
    }
    rows.into_values().collect()
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

fn main() {
    let stable = ps_bench::stable_artifacts();
    let mut report = Report::new("ps-trace timeline report: heal phases, percentiles, series");

    // ---- Leg 1: the 9-node chaos workload, fully instrumented. ----
    eprintln!("[timeline_report] chaos workload...");
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
    let timeline = HealTimeline::reconstruct(&events);
    assert!(
        !timeline.incidents.is_empty(),
        "chaos run must produce at least one incident"
    );
    assert_eq!(
        timeline.incidents[0].phases().len(),
        3,
        "the chaos crash must walk the full detection -> quarantine -> redeploy ladder, got {:?}",
        timeline.incidents[0]
    );
    let registry = tracer.registry().expect("enabled tracer has a registry");
    let chaos_rows = percentile_rows(registry);
    assert!(
        chaos_rows.iter().any(|(n, _)| n == "world.invoke_ms"),
        "chaos run must record invoke latencies"
    );
    report.section(format!(
        "chaos @9 nodes (seed {}, {} heal passes, {} renewal bytes)",
        chaos.seed, chaos.heal_passes, chaos.lease_renewal_bytes
    ));
    report_leg(&mut report, &timeline, &chaos_rows, &chaos.series);
    // conn-0 is the San Diego connect, conn-1 Seattle (connect order).
    let chaos_critical: Vec<String> = ["conn-0", "conn-1"]
        .iter()
        .map(|scope| critical_json(scope, &events))
        .collect();
    for scope in ["conn-0", "conn-1"] {
        if let Some(path) = scope_critical_path(scope, &events) {
            let (name, ns) = path.dominant().unwrap_or(("", 0));
            report.kv(
                format!("critical path {scope}"),
                format!(
                    "total {:.2}ms, dominant {name} {:.2}ms",
                    ms(path.total_ns),
                    ms(ns)
                ),
            );
        }
    }

    // ---- Leg 2: the 1013-node crash-and-heal from bench_scale. ----
    eprintln!("[timeline_report] 1013-node heal workload...");
    let (scale_tracer, scale_sink) = Tracer::memory();
    // Same topology + workload seeds as bench_scale's heal leg.
    let (net, server, client) = scale_network(1000, 8000);
    let scale_out = run_heal_workload(
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
    let scale_rows = percentile_rows(scale_registry);
    report.section(format!(
        "heal @{} nodes (crashed node {}, {} heal passes, {} renewal bytes)",
        scale_out.nodes, scale_out.crashed.0, scale_out.heal_passes, scale_out.lease_renewal_bytes
    ));
    report_leg(&mut report, &scale_timeline, &scale_rows, &scale_out.series);
    let scale_critical = critical_json("conn-0", &scale_events);

    // Per-region planning attribution: the hierarchical planner counts
    // segment solves and memo hits per region and gauges the wall time
    // each region's segment solves cost. Counters are seed-stable;
    // the wall gauge is written as `null` in stable mode.
    let region_rows = region_planning_rows(scale_registry);
    assert!(
        !region_rows.is_empty(),
        "hierarchical heal workload must populate planner.region.* metrics"
    );
    report.section("per-region planning (1013-node heal workload)");
    report.line(format!(
        "  {:<10} {:>9} {:>10} {:>13}",
        "region", "segments", "memo hits", "plan wall us"
    ));
    for row in &region_rows {
        report.line(format!(
            "  {:<10} {:>9} {:>10} {:>13}",
            row.region,
            row.segments,
            row.memo_hits,
            if stable {
                "-".to_owned()
            } else {
                format!("{:.0}", row.plan_wall_us)
            },
        ));
    }
    let regions_json: Vec<String> = region_rows
        .iter()
        .map(|row| {
            format!(
                "      {{\"region\": \"{}\", \"segments\": {}, \"memo_hits\": {}, \
                 \"plan_wall_us\": {}}}",
                row.region,
                row.segments,
                row.memo_hits,
                if stable {
                    "null".to_owned()
                } else {
                    format!("{:.1}", row.plan_wall_us)
                },
            )
        })
        .collect();
    let regions_json = format!("[\n{}\n    ]", regions_json.join(",\n"));

    // ---- Satellite: the lease detection-interval sweep. ----
    // Shorter heartbeats detect failures faster but renew more often;
    // the sweep prints the latency/traffic tradeoff.
    eprintln!("[timeline_report] detection-interval sweep...");
    report.section("lease detection-interval sweep (heartbeat/duration vs latency/traffic)");
    report.line(format!(
        "  {:>7} {:>9} {:>13} {:>12} {:>14}",
        "hb[ms]", "lease[ms]", "detect[ms]", "recover[ms]", "renewal bytes"
    ));
    let mut sweep_json = Vec::new();
    let mut last_detect = 0.0f64;
    for &(hb, dur) in &[
        (250u64, 1_000u64),
        (500, 2_000),
        (1_000, 4_000),
        (2_000, 8_000),
    ] {
        let out = sweep_point(hb, dur);
        let detect_ms = out
            .detection_latency()
            .map(|d| d.as_nanos() as f64 / 1e6)
            .expect("sweep point detects the crash");
        let recover_ms = out.recovery_latency().map(|d| d.as_nanos() as f64 / 1e6);
        assert!(
            detect_ms > last_detect,
            "detection latency must grow with the lease duration \
             ({detect_ms:.1}ms at {dur}ms lease, previous {last_detect:.1}ms)"
        );
        last_detect = detect_ms;
        report.line(format!(
            "  {:>7} {:>9} {:>13.1} {:>12} {:>14}",
            hb,
            dur,
            detect_ms,
            recover_ms.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            out.lease_renewal_bytes,
        ));
        sweep_json.push(format!(
            "    {{\"heartbeat_ms\": {hb}, \"lease_ms\": {dur}, \"detect_ms\": {detect_ms:.4}, \
             \"recover_ms\": {}, \"renewal_bytes\": {}}}",
            recover_ms.map_or_else(|| "null".to_owned(), |v| format!("{v:.4}")),
            out.lease_renewal_bytes,
        ));
    }

    let mut json = String::new();
    write!(
        json,
        "{{\n  \"bench\": \"timeline_report\",\n  \
         \"chaos\": {{\n    \"nodes\": 9, \"seed\": {}, \"heal_passes\": {}, \
         \"lease_renewal_bytes\": {},\n    \"timeline\": {},\n    \
         \"critical_paths\": [\n      {}\n    ],\n    \
         \"percentiles\": {},\n    \"series\": {}\n  }},\n  \
         \"scale\": {{\n    \"nodes\": {}, \"crashed\": {}, \"heal_passes\": {}, \
         \"lease_renewal_bytes\": {},\n    \"timeline\": {},\n    \
         \"critical_paths\": [\n      {}\n    ],\n    \
         \"percentiles\": {},\n    \"series\": {},\n    \"regions\": {}\n  }},\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        chaos.seed,
        chaos.heal_passes,
        chaos.lease_renewal_bytes,
        timeline_json(&timeline),
        chaos_critical.join(",\n      "),
        percentile_json(&chaos_rows),
        series_json(&chaos.series),
        scale_out.nodes,
        scale_out.crashed.0,
        scale_out.heal_passes,
        scale_out.lease_renewal_bytes,
        timeline_json(&scale_timeline),
        scale_critical,
        percentile_json(&scale_rows),
        series_json(&scale_out.series),
        regions_json,
        sweep_json.join(",\n"),
    )
    .expect("write to string");
    std::fs::write("BENCH_timeline.json", &json).expect("write BENCH_timeline.json");

    println!("{report}");
    println!("\nwrote BENCH_timeline.json");
}
