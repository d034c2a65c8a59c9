//! `ps-bench planner`: the planner's one search core on the case-study
//! topology and progressively larger BRITE hierarchies.
//!
//! Every scenario solves the identical multi-linkage mail-service
//! request through [`Planner::plan`] — bounded branch-and-bound search
//! over a fresh [`ScopedRoutes`] per call, a Dijkstra row per source the
//! search asks about — and reports its time, objective and deterministic
//! search and routing counters. (Why one algorithm, with the
//! measurements against the alternatives: DESIGN.md "Planner
//! performance".) Writes `BENCH_planner.json`.
//!
//! [`ScopedRoutes`]: ps_net::ScopedRoutes

use crate::cli::Args;
use crate::harness::mail_request;
use crate::record::{num, wall_num, Artifact, Record};
use ps_mail::{mail_spec, mail_translator};
use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::casestudy::default_case_study;
use ps_net::{Credentials, Network};
use ps_planner::{PlanStats, Planner, ServiceRequest};
use ps_sim::Rng;
use ps_trace::WallTimer;

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

/// The scenarios: the case study's two view-server sites, then three
/// BRITE hierarchies, each with the mail request planned on it.
fn scenarios() -> Vec<(String, Network, ServiceRequest)> {
    let request = |client, server, trust| mail_request(client, server, trust, 2.0);
    let cs = default_case_study();
    let mut scenarios = vec![
        (
            "case-study/SanDiego".to_owned(),
            cs.network.clone(),
            request(cs.sd_client, cs.mail_server, 4),
        ),
        (
            "case-study/Seattle".to_owned(),
            cs.network.clone(),
            request(cs.seattle_client, cs.mail_server, 1),
        ),
    ];
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
        let with_trust = |t| {
            net.node_ids()
                .find(|&n| net.trust_rating(n) == Some(t))
                .expect("an HQ and a branch node")
        };
        let (server, client) = (with_trust(5), with_trust(3));
        let label = format!("brite/{}as-x{}r ({}n)", as_count, routers, net.node_count());
        scenarios.push((label, net, request(client, server, 4)));
    }
    scenarios
}

/// `ps-bench planner`: writes `BENCH_planner.json`.
pub fn command(_: &Args) -> Result<Artifact, String> {
    let mut artifact = Artifact::new("Planner hot path: bounded search + lazy route rows per call");
    let mut rows = Vec::new();
    for (label, net, request) in scenarios() {
        let Some(m) = measure(&net, &request) else {
            artifact.line(format!("{label}: infeasible"));
            continue;
        };
        rows.push(
            Record::new()
                .with("scenario", label)
                .with("nodes", net.node_count())
                .with("time_ms", wall_num(m.time_ms, 3))
                .with("objective", num(m.objective, 6))
                .with("mappings_evaluated", m.stats.mappings_evaluated)
                .with("prunes", m.stats.prunes)
                .with("bound_prunes", m.stats.bound_prunes)
                .with("flow_evals", m.stats.flow_evals)
                .with("bound_cells", m.stats.bound_cells)
                .with("bound_pairs", m.stats.bound_pairs)
                .with("work_units", m.stats.work_units())
                .with("route_rows_built", m.stats.route_rows_built),
        );
    }
    let record = Record::new()
        .with("bench", "planner_hot_path")
        .with(
            "config",
            "bounded exhaustive search, lazy route rows per call, serial",
        )
        .with("scenarios", rows);
    artifact.file("BENCH_planner.json", record);
    Ok(artifact)
}
