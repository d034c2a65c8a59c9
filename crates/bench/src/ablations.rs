//! The ablations as `ps-bench` commands: coherence policy, RRF
//! crossover, sensitivity mix, open-loop saturation and migration cost.

use crate::cli::Args;
use crate::harness::mail_request;
use crate::record::{num, Artifact, Record};
use crate::scenarios::{
    build_static, case_study_mail, run_scenario_with_policy, Fig7Config, Scenario,
};
use ps_mail::spec::names::*;
use ps_mail::workload::{ClusterConfig, ClusterDriver};
use ps_mail::{mail_spec, mail_translator, OpenDriver};
use ps_net::casestudy::default_case_study;
use ps_planner::{Planner, ServiceRequest};
use ps_sim::SimDuration;
use ps_smock::CoherencePolicy;
use ps_spec::Behavior;

/// The San Diego client's request onto the pinned New York server at
/// `rate`, trust 4.
fn sd_request(cs: &ps_net::CaseStudy, rate: f64) -> ServiceRequest {
    mail_request(cs.sd_client, cs.mail_server, 4, rate)
}

/// `ps-bench ablation-coherence`: send latency and flush behaviour of
/// the San Diego deployment under write-through, count-limited,
/// time-driven and no propagation.
pub fn coherence(_: &Args) -> Result<Artifact, String> {
    let base = Fig7Config {
        clients: 3,
        msgs_per_client: 1000,
        ..Default::default()
    };
    let mut policies: Vec<(String, CoherencePolicy)> = vec![
        ("none".into(), CoherencePolicy::None),
        ("write-through".into(), CoherencePolicy::WriteThrough),
    ];
    for limit in [50u32, 100, 250, 500, 1000, 2000] {
        policies.push((
            format!("count-limit({limit})"),
            CoherencePolicy::CountLimit(limit),
        ));
    }
    for ms in [100u64, 500, 1000, 5000] {
        policies.push((
            format!("time-driven({ms}ms)"),
            CoherencePolicy::TimeDriven(SimDuration::from_millis(ms)),
        ));
    }
    let rows = policies
        .into_iter()
        .map(|(name, policy)| {
            let r = run_scenario_with_policy(Scenario::DS0, policy, &base);
            Record::new()
                .with("policy", name)
                .with("mean_ms", num(r.send.mean(), 3))
                .with("p50_ms", num(r.send_p50, 3))
                .with("p95_ms", num(r.send_p95, 3))
                .with("recv_ms", num(r.receive.mean(), 3))
                .with("simtime_s", num(r.completed_at.as_secs_f64(), 2))
        })
        .collect();
    let mut artifact =
        Artifact::new("Coherence-policy ablation (San Diego deployment, 3 clients x 1000 msgs)");
    artifact.table(rows).line("").line(
        "(write-through pays the WAN on every send; looser limits amortize the\n\
         per-flush fixed cost, approaching the no-coherence floor)",
    );
    Ok(artifact)
}

/// `ps-bench ablation-rrf`: at what declared Request Reduction Factor
/// does the planner stop deploying a `ViewMailServer` cache before the
/// slow link? The cache pays two local hops and its own CPU on every
/// request and saves `(1 − RRF)` of the WAN round trips; the sweep
/// across WAN latencies shows the crossover moving: the slower the
/// link, the worse a cache must be before it loses.
pub fn rrf(_: &Args) -> Result<Artifact, String> {
    let rrfs = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98, 0.99, 1.0];
    let mut rows = Vec::new();
    for wan_ms in [1u64, 2, 5, 10, 50, 400] {
        let mut cs = default_case_study();
        // Rescale the NY–SD link.
        let link_id = cs
            .network
            .link_between(cs.ny_gateway, cs.sd_gateway)
            .expect("wan link")
            .id;
        cs.network.link_mut(link_id).latency = SimDuration::from_millis(wan_ms);
        let request = sd_request(&cs, 2.0);
        let row = rrfs.iter().fold(
            Record::new().with("wan", format!("{wan_ms} ms")),
            |row, &rrf| {
                let mut spec = mail_spec();
                spec.components
                    .get_mut(VIEW_MAIL_SERVER)
                    .expect("vms exists")
                    .behavior
                    .rrf = rrf;
                let plan = Planner::new(spec)
                    .plan(&cs.network, &mail_translator(), &request)
                    .expect("feasible");
                let cached = plan.placement_of(VIEW_MAIL_SERVER).is_some();
                row.with(format!("{rrf:.2}"), if cached { "cache" } else { "-" })
            },
        );
        rows.push(row);
    }
    let mut artifact = Artifact::new("RRF crossover: does the planner deploy the cache?");
    artifact
        .line("columns: the view server's declared RRF")
        .table(rows)
        .line("")
        .line("('cache' = plan includes a ViewMailServer; '-' = direct encrypted connection)");
    Ok(artifact)
}

/// `ps-bench ablation-trust`: measured send latency of the San Diego
/// deployment as the workload's sensitivity mix shifts above the view
/// server's trust level. Messages with sensitivity ≤ 3 are absorbed by
/// the San Diego cache; higher levels bypass it synchronously across
/// the WAN, so the latency climbs from the cached floor toward the
/// no-cache ceiling — the run-time enforcement of the trust-level
/// storage policy.
pub fn trust(_: &Args) -> Result<Artifact, String> {
    let rows = [(1u8, 1u8), (1, 2), (1, 3), (1, 5), (3, 5), (4, 5), (5, 5)]
        .into_iter()
        .map(|(lo, hi)| {
            let config = Fig7Config {
                clients: 1,
                msgs_per_client: 500,
                sensitivity: (lo, hi),
                ..Default::default()
            };
            // Expected fraction of sends above trust level 3 under the
            // uniform mix.
            let bypass = (lo..=hi).filter(|&s| s > 3).count() as f64 / (lo..=hi).count() as f64;
            let r = run_scenario_with_policy(Scenario::DS0, CoherencePolicy::None, &config);
            Record::new()
                .with("sensitivity", format!("uniform {lo}..={hi}"))
                .with("bypass", num(bypass, 2))
                .with("mean_ms", num(r.send.mean(), 3))
                .with("p95_ms", num(r.send_p95, 3))
        })
        .collect();
    let mut artifact = Artifact::new("Sensitivity mix vs send latency (San Diego, trust-3 cache)");
    artifact.table(rows).line("").line(
        "(bypass fraction x WAN round trip dominates the mean once sensitive\n\
         messages outnumber cacheable ones)",
    );
    Ok(artifact)
}

/// Runs `msgs` open-loop sends at `rate` from San Diego through the
/// planned (cached) deployment or the naive direct one (the `SS`
/// shape); returns the mean and max send latency and whether every
/// send completed.
fn open_loop(direct: bool, rate: f64, msgs: u32) -> (f64, f64, bool) {
    let (cs, mut fw) = case_study_mail(11, CoherencePolicy::None);
    let root = if direct {
        build_static(
            &mut fw.world,
            &fw.server.registry,
            &mail_spec(),
            &cs,
            Scenario::SS,
            cs.sd_client,
        )
    } else {
        // Plan for a nominal rate; the sweep exceeds it.
        fw.connect("mail", &sd_request(&cs, 1.0)).unwrap().root
    };
    let driver = OpenDriver::new(
        ClusterConfig {
            sends: msgs,
            receives: 0,
            ..ClusterConfig::paper("alice", "bob", 1 << 40)
        },
        rate,
    );
    let id = fw.world.instantiate(
        "open-driver",
        cs.sd_client,
        Default::default(),
        Behavior::new(),
        Box::new(driver),
        fw.world.now(),
    );
    fw.world.wire(id, vec![root]);
    fw.run();

    let d = fw
        .world
        .logic_mut(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<OpenDriver>())
        .expect("open driver");
    let n = d.completed.len().max(1) as f64;
    let mean = d.completed.iter().sum::<f64>() / n;
    let max = d.completed.iter().cloned().fold(0.0f64, f64::max);
    (mean, max, d.is_done())
}

/// `ps-bench ablation-throughput`: offered rate vs mean send latency
/// for the cached San Diego deployment and the naive direct one. The
/// planner's condition 3 reasons about exactly these rates; this shows
/// the queueing behind it — the direct deployment's 8 Mb/s WAN
/// saturates at a few hundred messages/second while the cache absorbs
/// an order of magnitude more, and each deployment's latency stays flat
/// until its own knee.
pub fn throughput(_: &Args) -> Result<Artifact, String> {
    let rows = [10.0, 50.0, 100.0, 200.0, 300.0, 400.0, 600.0]
        .into_iter()
        .map(|rate| {
            let msgs = (rate as u32 * 4).max(200);
            let (cm, cx, cd) = open_loop(false, rate, msgs);
            let (dm, dx, dd) = open_loop(true, rate, msgs);
            Record::new()
                .with("rate_per_s", num(rate, 0))
                .with("cached_mean_ms", num(cm, 2))
                .with("cached_max_ms", num(cx, 1))
                .with("cached_done", cd)
                .with("direct_mean_ms", num(dm, 1))
                .with("direct_max_ms", num(dx, 1))
                .with("direct_done", dd)
        })
        .collect();
    let mut artifact = Artifact::new("Open-loop saturation: offered rate vs send latency [ms]");
    artifact.table(rows).line("").line(
        "(the direct deployment's latency explodes once the offered rate\n\
         exceeds what the 8 Mb/s WAN serializes — ~380 msg/s at ~2.6 KB —\n\
         while the cache-absorbed deployment stays flat)",
    );
    Ok(artifact)
}

/// `ps-bench ablation-migration`: moving a live `ViewMailServer`
/// replica to another node as a function of the state it has
/// accumulated. State transfer is charged over the actual route (the
/// replica's cached messages are its snapshot), so a move within the
/// LAN is cheap and one across the WAN scales with cache size — the
/// trade-off a re-planner weighs against redeploying an empty replica
/// that must re-warm.
pub fn migration(_: &Args) -> Result<Artifact, String> {
    let mut rows = Vec::new();
    for msgs in [0u32, 100, 500, 1000, 2000, 5000] {
        let mut row = Record::new().with("msgs_cached", msgs);
        for wan in [false, true] {
            let (cs, mut fw) = case_study_mail(msgs.into(), CoherencePolicy::None);
            let conn = fw.connect("mail", &sd_request(&cs, 10.0)).unwrap();
            let vms_idx = conn
                .plan
                .placement_of(VIEW_MAIL_SERVER)
                .unwrap()
                .graph_index;
            let vms = conn.deployment.instances[vms_idx];
            if msgs > 0 {
                let driver = ClusterDriver::new(ClusterConfig {
                    sends: msgs,
                    receives: 0,
                    ..ClusterConfig::paper("alice", "bob", 1 << 40)
                });
                let id = fw.world.instantiate(
                    "driver",
                    cs.sd_client,
                    Default::default(),
                    Behavior::new(),
                    Box::new(driver),
                    conn.ready_at,
                );
                fw.world.wire(id, vec![conn.root]);
            }
            fw.run();

            let target = if wan {
                // Move the replica to the Seattle site across the WAN
                // (hypothetically; trust conditions are the planner's
                // concern — this measures the mechanism).
                cs.seattle_gateway
            } else {
                // The snapshot size is the same either way.
                let state_kb = fw
                    .world
                    .logic_mut(vms)
                    .snapshot()
                    .map_or(0.0, |snap| snap.wire_bytes as f64 / 1024.0);
                row.push("state_kb", num(state_kb, 1));
                cs.network
                    .site_nodes("SanDiego")
                    .into_iter()
                    .find(|&n| n != fw.world.instance(vms).node)
                    .unwrap()
            };
            let before = fw.world.now();
            let (_, live_at) = fw.world.migrate(vms, target);
            let cost = live_at.since(before).as_millis_f64();
            if wan {
                row.push("wan_move_ms", num(cost, 1));
            } else {
                row.push("lan_move_ms", num(cost, 2));
            }
        }
        rows.push(row);
    }
    let mut artifact = Artifact::new("Migration cost vs cached state (ViewMailServer)");
    artifact.table(rows).line("").line(
        "(LAN moves ride 100 Mb/s zero-latency links; WAN moves pay the\n\
         50 Mb/s / 100 ms Seattle link — linear in cached bytes either way)",
    );
    Ok(artifact)
}
