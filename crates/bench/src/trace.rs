//! `ps-bench trace [JSONL]`: the mail case study with a memory-sink
//! tracer installed across the whole stack; reconstructs the Figure
//! 7-style per-connection latency breakdown (lookup / plan / transfer /
//! deploy / invoke) from the event stream and writes `BENCH_trace.json`.
//!
//! What tracing costs on the client path is `trace.overhead_ratio` in
//! the repo benchmark (`benchmark/`), traced vs untraced runs of one
//! workload. Two runs with identical inputs produce byte-identical event
//! streams: wall-clock values are banned from events and live in the
//! metrics registry only, as `_wall_` metrics.

use crate::cli::Args;
use crate::harness::{case_study_sites, mail_framework, ns_ms, site_request, spawn_driver};
use crate::record::{wall, Artifact, Record, Value};
use ps_net::casestudy::default_case_study;
use ps_trace::wallclock::is_wall_metric;
use ps_trace::{breakdowns, closed_spans, Event, Metric, Tracer};

struct ConnInfo {
    site: &'static str,
    scope: String,
    root: u64,
}

/// Runs the mail case study with a memory-sink tracer installed: three
/// site connections (the Section 4.2 trio) plus a small message workload
/// per site so `invoke` spans flow through the deployed pipelines.
fn traced_run(tracer: &Tracer) -> Vec<ConnInfo> {
    let cs = default_case_study();
    let mut framework = mail_framework(cs.network.clone(), cs.mail_server, tracer);
    let mut connections = Vec::new();
    for (i, (site, client, trust)) in case_study_sites(&cs).into_iter().enumerate() {
        let connection = framework
            .connect("mail", &site_request(&cs, client, trust))
            .expect("connect");
        connections.push(ConnInfo {
            site,
            scope: format!("conn-{i}"),
            root: connection.root.0 as u64,
        });
        // A small per-site workload driving the freshly-built pipeline.
        spawn_driver(
            &mut framework.world,
            site,
            client,
            connection.root,
            (25, 5),
            (i as u64 + 1) << 40,
            42 ^ (i as u64).wrapping_mul(0x9E37_79B9),
        );
    }

    framework.run();
    framework.world.publish_resource_metrics();
    connections
}

/// Per-connection `invoke` totals: client-visible requests are the spans
/// whose `to` field is the connection's root instance (inner pipeline
/// hops are separate spans and intentionally excluded).
fn invoke_totals(events: &[Event], root: u64) -> (u64, u64) {
    let mut total_ns = 0;
    let mut count = 0;
    for span in closed_spans(events) {
        if span.name == "invoke" && span.field_u64("to") == Some(root) {
            total_ns += span.duration_ns();
            count += 1;
        }
    }
    (total_ns, count)
}

/// `ps-bench trace [JSONL]`: writes `BENCH_trace.json` and, given
/// `JSONL`, the event stream.
pub fn command(args: &Args) -> Result<Artifact, String> {
    let (tracer, sink) = Tracer::memory();
    let connections = traced_run(&tracer);
    let events = sink.events();
    let all_breakdowns = breakdowns(&events);

    let rows: Vec<Record> = connections
        .iter()
        .map(|conn| {
            let breakdown = all_breakdowns
                .iter()
                .find(|b| b.scope == conn.scope)
                .expect("breakdown for connection");
            let (invoke_ns, invokes) = invoke_totals(&events, conn.root);
            ["lookup", "plan", "transfer", "deploy", "connect"]
                .into_iter()
                .fold(
                    Record::new()
                        .with("site", conn.site)
                        .with("scope", conn.scope.as_str())
                        .with("root", conn.root),
                    |r, phase| r.with(format!("{phase}_ms"), ns_ms(breakdown.phase_ns(phase))),
                )
                .with("invokes", invokes)
                .with("invoke_ms", ns_ms(invoke_ns))
        })
        .collect();

    // The registry's `_wall_` metrics (host planning time) are the only
    // entries that legitimately differ between same-seed runs.
    let registry = tracer.registry().expect("enabled tracer has a registry");
    let metrics = registry
        .snapshot()
        .into_iter()
        .fold(Record::new(), |r, (name, metric)| {
            let text = match metric {
                Metric::Counter(c) => c.to_string(),
                Metric::Gauge(g) => format!("{g:.3}"),
                Metric::Histogram(h) => format!(
                    "count={} mean={:.3} min={:.3} max={:.3}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                ),
            };
            let value = if is_wall_metric(&name) {
                wall(text, Value::Null)
            } else {
                text.into()
            };
            r.with(name, value)
        });

    let record = Record::new()
        .with("bench", "trace_report")
        .with("events", events.len())
        .with("spans", closed_spans(&events).len())
        .with("connections", rows)
        .with(
            "registry",
            wall(
                Value::Raw(registry.to_json()),
                Value::Raw(registry.to_json_deterministic()),
            ),
        );
    let mut artifact = Artifact::new("ps-trace report: mail case study (virtual ms)");
    artifact
        .file("BENCH_trace.json", record)
        .section("registry (counters / gauges / histograms)")
        .show(metrics);
    if let Some(path) = args.get(0) {
        artifact.stream(path, sink.to_jsonl());
    }
    Ok(artifact)
}
