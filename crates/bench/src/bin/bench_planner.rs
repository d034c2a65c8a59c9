//! Planner hot-path benchmark: the planner's one search core on the
//! case-study topology and progressively larger BRITE hierarchies.
//!
//! Every scenario solves the identical multi-linkage mail-service
//! request through [`Planner::plan`] — bounded branch-and-bound search,
//! one all-pairs [`RouteTable`] per call — and reports its time,
//! objective and deterministic search counters. (Why one algorithm,
//! with the measurements against the alternatives: DESIGN.md "Planner
//! performance".)
//!
//! Writes `BENCH_planner.json` (hand-rolled JSON, no serde in the tree)
//! to the current directory and prints the same numbers as a table.
//!
//! [`RouteTable`]: ps_net::RouteTable

#![forbid(unsafe_code)]

use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator};
use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::casestudy::default_case_study;
use ps_net::{Credentials, Network};
use ps_planner::{PlanStats, Planner, ServiceRequest};
use ps_sim::Rng;
use ps_trace::{Report, WallTimer};

/// Minimum timed repetitions per scenario (the fastest is reported).
/// Short scenarios keep repeating until `MIN_TOTAL_MS` of measurement
/// accumulates, which damps scheduler noise on small runs.
const REPS: usize = 5;
/// Repetition budget per scenario, milliseconds.
const MIN_TOTAL_MS: f64 = 300.0;
/// Hard repetition cap per scenario.
const MAX_REPS: usize = 40;

struct Measurement {
    time_ms: f64,
    objective: f64,
    stats: PlanStats,
}

/// Plans one scenario at least `REPS` times; keeps the fastest run.
fn measure(net: &Network, request: &ServiceRequest) -> Option<Measurement> {
    let planner = Planner::new(mail_spec());
    let translator = mail_translator();
    let mut best: Option<Measurement> = None;
    let mut total_ms = 0.0;
    let mut reps = 0;
    while reps < REPS || (total_ms < MIN_TOTAL_MS && reps < MAX_REPS) {
        let start = WallTimer::start();
        let plan = planner.plan(net, &translator, request).ok()?;
        let time_ms = start.elapsed_ms();
        total_ms += time_ms;
        reps += 1;
        if best.as_ref().is_none_or(|b| time_ms < b.time_ms) {
            best = Some(Measurement {
                time_ms,
                objective: plan.objective_value,
                stats: plan.stats,
            });
        }
    }
    best
}

/// Decorates a BRITE network with the mail service's credentials (first
/// AS = trusted HQ, second = branch, rest = partner).
fn decorate(net: &mut Network) {
    for id in net.node_ids().collect::<Vec<_>>() {
        let site = net.node(id).site.clone();
        let (trust, domain) = match site.as_str() {
            "as0" => (5i64, "company"),
            "as1" => (3, "company"),
            _ => (2, "partner"),
        };
        let node = net.node_mut(id);
        node.credentials = Credentials::new()
            .with("TrustRating", trust)
            .with("Domain", domain);
    }
}

fn main() {
    // Stable-artifact mode (PS_STABLE_ARTIFACTS=1): wall-clock fields
    // are zeroed so two runs write identical JSON.
    let stable = ps_bench::stable_artifacts();
    let mut scenarios: Vec<(String, Network, ServiceRequest)> = Vec::new();

    let cs = default_case_study();
    for (label, client, trust) in [
        ("case-study/SanDiego", cs.sd_client, 4i64),
        ("case-study/Seattle", cs.seattle_client, 1),
    ] {
        let request = ServiceRequest::new(CLIENT_INTERFACE, client)
            .rate(2.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        scenarios.push((label.to_owned(), cs.network.clone(), request));
    }

    for (as_count, routers) in [(3usize, 4usize), (4, 6), (5, 8)] {
        let mut rng = Rng::seed_from_u64(1234 + as_count as u64);
        let params = HierParams {
            as_count,
            router: FlatParams {
                nodes: routers,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut net = hierarchical(&mut rng, &params);
        decorate(&mut net);
        let server_node = net
            .node_ids()
            .find(|&n| net.trust_rating(n) == Some(5))
            .expect("an HQ node");
        let client_node = net
            .node_ids()
            .find(|&n| net.trust_rating(n) == Some(3))
            .expect("a branch node");
        let request = ServiceRequest::new(CLIENT_INTERFACE, client_node)
            .rate(2.0)
            .pin(MAIL_SERVER, server_node)
            .origin(server_node)
            .require("TrustLevel", 4i64);
        let label = format!("brite/{}as-x{}r ({}n)", as_count, routers, net.node_count());
        scenarios.push((label, net, request));
    }

    let mut report = Report::new("Planner hot path: bounded search + one route table per call");
    report.line(format!(
        "{:<24} {:>9} {:>11} {:>7} {:>8} {:>9} {:>10} {:>11}",
        "scenario",
        "time[ms]",
        "objective",
        "evals",
        "prunes",
        "bound cut",
        "flow evals",
        "bound cells"
    ));

    let mut entries = Vec::new();
    for (label, net, request) in &scenarios {
        let Some(mut m) = measure(net, request) else {
            report.line(format!("{label:<24} infeasible"));
            continue;
        };
        if stable {
            m.time_ms = 0.0;
            m.stats.route_table_build_us = 0;
        }
        report.line(format!(
            "{:<24} {:>9.2} {:>11.4} {:>7} {:>8} {:>9} {:>10} {:>11}",
            label,
            m.time_ms,
            m.objective,
            m.stats.mappings_evaluated,
            m.stats.prunes,
            m.stats.bound_prunes,
            m.stats.flow_evals,
            m.stats.bound_cells,
        ));
        entries.push(format!(
            "    {{\"scenario\": \"{label}\", \"nodes\": {}, \"time_ms\": {:.3}, \
             \"objective\": {:.6}, \"mappings_evaluated\": {}, \"prunes\": {}, \
             \"bound_prunes\": {}, \"flow_evals\": {}, \"bound_cells\": {}, \
             \"work_units\": {}, \"route_table_build_us\": {}}}",
            net.node_count(),
            m.time_ms,
            m.objective,
            m.stats.mappings_evaluated,
            m.stats.prunes,
            m.stats.bound_prunes,
            m.stats.flow_evals,
            m.stats.bound_cells,
            m.stats.work_units(),
            m.stats.route_table_build_us,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"planner_hot_path\",\n  \
         \"config\": \"bounded exhaustive search, one route table per call, serial\",\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    report.line("");
    report.kv("wrote", "BENCH_planner.json");
    println!("{report}");
}
