//! End-to-end tracing demo and guard: runs the mail case study with a
//! memory-sink tracer installed across the whole stack, reconstructs the
//! Figure 7-style per-connection latency breakdown (lookup / plan /
//! transfer / deploy / invoke) from the event stream, and renders both a
//! human report and `BENCH_trace.json`.
//!
//! Doubles as the tracing overhead guard: with the tracer left disabled
//! (the default), the instrumented planning hot path must stay within 5%
//! of the freshly-measured `BENCH_planner.json` baseline for the same
//! scenario (`case-study/SanDiego`, optimized stack). Run `bench_planner`
//! first so the baseline comes from the same machine and session.
//!
//! Usage: `trace_report [JSONL_PATH]` — the optional argument dumps the
//! raw event stream as JSONL. Two runs with identical inputs produce
//! byte-identical streams (wall-clock values are banned from events; they
//! live in the metrics registry only), which `verify.sh` checks with
//! `cmp`.

use ps_core::Framework;
use ps_mail::spec::names::*;
use ps_mail::workload::{ClusterConfig, ClusterDriver};
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::casestudy::default_case_study;
use ps_planner::{Planner, ServiceRequest};
use ps_smock::{CoherencePolicy, ServiceRegistration};
use ps_spec::{Behavior, ResolvedBindings};
use ps_trace::{breakdowns, closed_spans, Event, Metric, Report, Tracer, WallTimer};
use std::fmt::Write as _;

/// Minimum timed repetitions for the overhead guard (fastest kept),
/// matching `bench_planner`'s measurement idiom.
const REPS: usize = 5;
/// Repetition budget, milliseconds.
const MIN_TOTAL_MS: f64 = 300.0;
/// Hard repetition cap.
const MAX_REPS: usize = 40;
/// Allowed overhead of the instrumented (tracer-disabled) planning path
/// over the `bench_planner` baseline.
const MAX_OVERHEAD: f64 = 0.05;
/// Absolute slack (ms) so sub-millisecond baselines don't flake on
/// scheduler noise.
const ABS_SLACK_MS: f64 = 0.25;

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
    let mut framework = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    framework.set_tracer(tracer.clone());
    register_mail_components(
        &mut framework.server.registry,
        Keyring::new(1),
        CoherencePolicy::CountLimit(500),
    );
    framework.register_service(
        ServiceRegistration::new(mail_spec())
            .attribute("type", "mail")
            .proxy_code_size(32 * 1024),
    );
    framework
        .install_primary("mail", MAIL_SERVER, cs.mail_server)
        .expect("primary");

    let mut connections = Vec::new();
    for (i, (site, client, trust)) in [
        ("NewYork", cs.ny_client, 4i64),
        ("SanDiego", cs.sd_client, 4),
        ("Seattle", cs.seattle_client, 1),
    ]
    .into_iter()
    .enumerate()
    {
        let request = ServiceRequest::new(CLIENT_INTERFACE, client)
            .rate(5.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        let connection = framework.connect("mail", &request).expect("connect");
        connections.push(ConnInfo {
            site,
            scope: format!("conn-{i}"),
            root: connection.root.0 as u64,
        });

        // A small per-site workload driving the freshly-built pipeline.
        let driver = ClusterDriver::new(ClusterConfig {
            user: format!("user-{site}"),
            peers: vec![format!("user-{site}")],
            sends: 25,
            receives: 5,
            body_bytes: (1024, 3072),
            sensitivity: (1, 2),
            id_base: (i as u64 + 1) << 40,
            seed: 42 ^ (i as u64).wrapping_mul(0x9E37_79B9),
        });
        let id = framework.world.instantiate(
            format!("driver-{site}"),
            client,
            ResolvedBindings::new(),
            Behavior::new(),
            Box::new(driver),
            framework.world.now(),
        );
        framework.world.wire(id, vec![connection.root]);
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

/// Extracts the `time_ms` of `scenario` from `BENCH_planner.json` by
/// string search (no serde in the tree).
fn baseline_ms(json: &str, scenario: &str) -> Option<f64> {
    let at = json.find(&format!("\"scenario\": \"{scenario}\""))?;
    let tail = &json[at..];
    let t_at = tail.find("\"time_ms\": ")? + "\"time_ms\": ".len();
    let tail = &tail[t_at..];
    let end = tail.find([',', '}'])?;
    tail[..end].trim().parse().ok()
}

/// Min-of-N planning time on the instrumented code path with the tracer
/// left disabled — the configuration `bench_planner` labels
/// `case-study/SanDiego`.
fn measure_disabled_planning() -> f64 {
    let cs = default_case_study();
    let request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(2.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64);
    let planner = Planner::new(mail_spec());
    let translator = mail_translator();
    let mut best = f64::INFINITY;
    let mut total_ms = 0.0;
    let mut reps = 0;
    while reps < REPS || (total_ms < MIN_TOTAL_MS && reps < MAX_REPS) {
        let start = WallTimer::start();
        let plan = planner
            .plan(&cs.network, &translator, &request)
            .expect("plan");
        let time_ms = start.elapsed_ms();
        std::hint::black_box(plan.objective_value);
        total_ms += time_ms;
        reps += 1;
        best = best.min(time_ms);
    }
    best
}

fn main() {
    let jsonl_path = std::env::args().nth(1);
    // Stable-artifact mode: skip the wall-clock overhead guard and strip
    // `_wall_` registry metrics so two runs write identical JSON.
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

    // Overhead guard: the instrumented planning path with tracing
    // disabled vs the bench_planner baseline for the same scenario. In
    // stable mode the guard (pure wall-clock) is skipped and the field
    // is written as null — the determinism check covers content, not
    // timing.
    let baseline = if stable {
        None
    } else {
        std::fs::read_to_string("BENCH_planner.json")
            .ok()
            .and_then(|json| baseline_ms(&json, "case-study/SanDiego"))
    };
    report.section("overhead guard (tracer disabled vs bench_planner baseline)");
    let overhead_json = if stable {
        report.kv("verdict", "SKIPPED (stable-artifact mode)");
        "null".to_owned()
    } else {
        let disabled_ms = measure_disabled_planning();
        report.kv("disabled_ms", format!("{disabled_ms:.3}"));
        match baseline {
            Some(base) => {
                let ratio = disabled_ms / base;
                report.kv("baseline_ms", format!("{base:.3}"));
                report.kv("ratio", format!("{ratio:.3}"));
                assert!(
                    disabled_ms <= base * (1.0 + MAX_OVERHEAD) + ABS_SLACK_MS,
                    "tracing instrumentation overhead guard failed: \
                 disabled-tracer planning took {disabled_ms:.3} ms vs \
                 baseline {base:.3} ms (>{:.0}% + {ABS_SLACK_MS} ms slack)",
                    MAX_OVERHEAD * 100.0
                );
                report.kv(
                    "verdict",
                    format!(
                        "PASS (within {:.0}% + {ABS_SLACK_MS} ms slack)",
                        MAX_OVERHEAD * 100.0
                    ),
                );
                format!(
                    "{{\"baseline_ms\": {base:.3}, \"disabled_ms\": {disabled_ms:.3}, \
                 \"ratio\": {ratio:.3}, \"max_overhead\": {MAX_OVERHEAD}}}"
                )
            }
            None => {
                report.kv(
                    "verdict",
                    "SKIPPED (no BENCH_planner.json baseline; run bench_planner first)",
                );
                format!("{{\"baseline_ms\": null, \"disabled_ms\": {disabled_ms:.3}}}")
            }
        }
    };

    if let Some(path) = &jsonl_path {
        std::fs::write(path, sink.to_jsonl()).expect("write JSONL");
        report.section("event stream");
        report.kv("jsonl", path);
    }

    let json = format!(
        "{{\n  \"bench\": \"trace_report\",\n  \"events\": {},\n  \
         \"connections\": [\n{}\n  ],\n  \"overhead\": {},\n  \"registry\": {}\n}}\n",
        events.len(),
        conn_json.join(",\n"),
        overhead_json,
        registry_json,
    );
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");

    println!("{report}");
    println!("\nwrote BENCH_trace.json");
}
