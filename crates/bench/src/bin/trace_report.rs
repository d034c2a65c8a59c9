//! End-to-end tracing demo: runs the mail case study with a
//! memory-sink tracer installed across the whole stack, reconstructs the
//! Figure 7-style per-connection latency breakdown (lookup / plan /
//! transfer / deploy / invoke) from the event stream, and renders both a
//! human report and `BENCH_trace.json`.
//!
//! What tracing costs on the client path is `trace.overhead_ratio` in
//! the repo benchmark (`benchmark/`), traced vs untraced runs of one
//! workload.
//!
//! Usage: `trace_report [JSONL_PATH]` — the optional argument dumps the
//! raw event stream as JSONL. Two runs with identical inputs produce
//! byte-identical streams (wall-clock values are banned from events; they
//! live in the metrics registry only), which `verify.sh` checks with
//! `cmp`.

#![forbid(unsafe_code)]

use ps_bench::harness::{case_study_sites, mail_framework, site_request, spawn_driver};
use ps_net::casestudy::default_case_study;
use ps_trace::{breakdowns, closed_spans, Event, Metric, Report, Tracer};
use std::fmt::Write as _;

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

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

fn main() {
    let jsonl_path = std::env::args().nth(1);
    // Stable-artifact mode: strip `_wall_` registry metrics so two runs
    // write identical JSON.
    let stable = ps_bench::stable_artifacts();

    let (tracer, sink) = Tracer::memory();
    let connections = traced_run(&tracer);
    let events = sink.events();
    let all_breakdowns = breakdowns(&events);

    let mut report = Report::new("ps-trace report: mail case study");
    report.kv("events", events.len());
    report.kv("spans", closed_spans(&events).len());
    report.kv("connections", connections.len());

    report.section("per-connection latency breakdown (virtual ms)");
    report.line(format!(
        "{:<10} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9} {:>8} {:>10}",
        "site", "scope", "lookup", "plan", "transfer", "deploy", "connect", "invokes", "invoke[ms]"
    ));
    let mut conn_json = Vec::new();
    for conn in &connections {
        let breakdown = all_breakdowns
            .iter()
            .find(|b| b.scope == conn.scope)
            .expect("breakdown for connection");
        let (invoke_ns, invokes) = invoke_totals(&events, conn.root);
        report.line(format!(
            "{:<10} {:>8} {:>9.2} {:>8.3} {:>9.1} {:>8.1} {:>9.1} {:>8} {:>10.2}",
            conn.site,
            conn.scope,
            ms(breakdown.phase_ns("lookup")),
            ms(breakdown.phase_ns("plan")),
            ms(breakdown.phase_ns("transfer")),
            ms(breakdown.phase_ns("deploy")),
            ms(breakdown.phase_ns("connect")),
            invokes,
            ms(invoke_ns),
        ));
        let mut entry = String::new();
        write!(
            entry,
            "    {{\"site\": \"{}\", \"scope\": \"{}\", \"root\": {},\n      \
             \"lookup_ms\": {:.4}, \"plan_ms\": {:.4}, \"transfer_ms\": {:.4}, \
             \"deploy_ms\": {:.4}, \"connect_ms\": {:.4},\n      \
             \"invokes\": {}, \"invoke_ms\": {:.4}}}",
            conn.site,
            conn.scope,
            conn.root,
            ms(breakdown.phase_ns("lookup")),
            ms(breakdown.phase_ns("plan")),
            ms(breakdown.phase_ns("transfer")),
            ms(breakdown.phase_ns("deploy")),
            ms(breakdown.phase_ns("connect")),
            invokes,
            ms(invoke_ns),
        )
        .expect("write to string");
        conn_json.push(entry);
    }

    report.section("registry (counters / gauges / histograms)");
    let registry = tracer.registry().expect("enabled tracer has a registry");
    // Stable mode strips the `_wall_` metrics (host planning time), the
    // only registry entries that legitimately differ between same-seed
    // runs.
    let registry_json = if stable {
        registry.to_json_deterministic()
    } else {
        registry.to_json()
    };
    for (name, metric) in registry.snapshot() {
        let rendered = match metric {
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
        report.kv(name, rendered);
    }

    if let Some(path) = &jsonl_path {
        std::fs::write(path, sink.to_jsonl()).expect("write JSONL");
        report.section("event stream");
        report.kv("jsonl", path);
    }

    let json = format!(
        "{{\n  \"bench\": \"trace_report\",\n  \"events\": {},\n  \
         \"connections\": [\n{}\n  ],\n  \"registry\": {}\n}}\n",
        events.len(),
        conn_json.join(",\n"),
        registry_json,
    );
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");

    println!("{report}");
    println!("\nwrote BENCH_trace.json");
}
