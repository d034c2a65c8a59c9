//! `ps-bench scale`: thousand-node scaling studies over progressively
//! larger BRITE hierarchies, written to `BENCH_scale.json`:
//!
//! 1. **Flat vs hierarchical planning** — a cold flat plan against the
//!    gateway-composed one, cold and memo-warm, in wall time and in
//!    deterministic work units.
//! 2. **Heal workload** — a chaos-style crash-and-recover run of the
//!    full self-healing stack on the same topology, all outcomes
//!    virtual-time derived, driven by the shared heal loop
//!    ([`crate::harness`]).
//! 3. **Sibling connect** — a connect from a second workstation on the
//!    branch client's uplink, after the client's: the property flows it
//!    computes and the Dijkstra rows it runs, against a world that
//!    already holds its sibling's.
//!
//! Everything but the wall-clock figures is deterministic for a fixed
//! seed.

use crate::cli::Args;
use crate::harness::{
    drain, enable_telemetry, healing_mail_framework, mail_framework, mail_request, ms, HealTally,
};
use crate::record::{num, wall, wall_num, Artifact, Record};
use ps_mail::{mail_spec, mail_translator};
use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{Credentials, Network, NodeId};
use ps_planner::{HierConfig, HierMemo, Plan, Planner, PlannerConfig, ServiceRequest};
use ps_sim::{FaultPlan, Rng, SimDuration, SimTime};
use ps_smock::LeaseConfig;
use ps_trace::{SamplerConfig, SeriesSummary, Tracer, WallTimer};
use std::sync::Arc;

/// Hosting-capable nodes per site — kept constant as the topology
/// grows so the planner's installation-condition candidate sets stay
/// fixed and the scaling curves isolate route/queue/search
/// work, the way a real deployment has a handful of datacenters inside
/// a large transit fabric.
const HOSTS_PER_SITE: usize = 6;

/// Builds a 5-AS BRITE hierarchy with `routers` total routers,
/// decorated for the mail service. Every router is transit fabric —
/// `partner` domain with TrustRating 4, which fails every mail
/// component's installation conditions (company-domain components and
/// the TrustRating 1–3 view server alike), so only the condition-free
/// encryptor can roam the fabric and the search stays linear in world
/// size. Hosting happens on dedicated *leaf hosts* hung off the first
/// `HOSTS_PER_SITE` routers of `as0` (HQ, TrustRating 5, company)
/// and `as1` (the branch office, TrustRating 3, company) over secure
/// LAN links — the way a real deployment attaches datacenter machines
/// to a transit fabric. Because hosts are leaves, a host crash dirties
/// only its own shortest-path tree: every other route row is carried
/// across it without re-running Dijkstra.
/// Returns `(network, server_node, client_node)`.
pub fn scale_network(routers: usize, seed: u64) -> (Network, NodeId, NodeId) {
    let as_count = 5;
    let mut rng = Rng::seed_from_u64(seed);
    let params = HierParams {
        as_count,
        router: FlatParams {
            nodes: routers / as_count,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    for id in net.node_ids().collect::<Vec<_>>() {
        let node = net.node_mut(id);
        node.credentials = node
            .credentials
            .clone()
            .with("TrustRating", 4i64)
            .with("Domain", "partner");
    }
    let lan = SimDuration::from_nanos(100_000); // 100 µs LAN hop
    let attach = |net: &mut Network, site: &str, trust: i64| -> Vec<NodeId> {
        let uplinks: Vec<NodeId> = net
            .node_ids()
            .filter(|&n| net.node(n).site == site)
            .take(HOSTS_PER_SITE)
            .collect();
        uplinks
            .iter()
            .enumerate()
            .map(|(i, &router)| {
                let host = net.add_node(
                    format!("{site}-host-{i}"),
                    site,
                    1.0,
                    Credentials::new()
                        .with("TrustRating", trust)
                        .with("Domain", "company"),
                );
                net.add_link(
                    router,
                    host,
                    lan,
                    1e9,
                    Credentials::new().with("Secure", true),
                );
                host
            })
            .collect()
    };
    let hq = attach(&mut net, "as0", 5);
    attach(&mut net, "as1", 3);
    // The client is a plain branch-office workstation: partner-grade
    // trust, so no mail component can install on it and the service
    // chain spreads across the branch datacenter hosts instead of
    // collapsing onto the requester.
    let uplink = net
        .node_ids()
        .find(|&n| net.node(n).site == "as1")
        .expect("an as1 router");
    let client = net.add_node(
        "as1-client",
        "as1",
        1.0,
        Credentials::new()
            .with("TrustRating", 4i64)
            .with("Domain", "partner"),
    );
    net.add_link(
        uplink,
        client,
        lan,
        1e9,
        Credentials::new().with("Secure", true),
    );
    (net, hq[0], client)
}

/// The standard scaling request: branch workstation onto the pinned
/// mail server, trusted chain required. The workstation is
/// partner-grade, so the root floats (`free_root`) onto the branch
/// datacenter hosts and the client ↔ root edge is charged in the
/// objective.
pub fn scale_request(server: NodeId, client: NodeId) -> ServiceRequest {
    mail_request(client, server, 4, 2.0).free_root()
}

/// Flat vs hierarchical cold planning on one world.
#[derive(Debug, Clone, Copy)]
pub struct HierPlanMeasure {
    /// Nodes in the network.
    pub nodes: usize,
    /// Regions (BRITE autonomous systems) in the fabric.
    pub regions: usize,
    /// Flat from-scratch plan, wall microseconds.
    pub flat_us: u64,
    /// Hierarchical plan with a fresh memo every rep — the true cold
    /// path — wall microseconds.
    pub hier_cold_us: u64,
    /// Hierarchical plan against a pre-populated memo, wall
    /// microseconds.
    pub hier_warm_us: u64,
    /// Optimal objective from the flat exhaustive search.
    pub flat_objective: f64,
    /// Objective of the gateway-composed plan (equal to flat on every
    /// world measured; never better).
    pub hier_objective: f64,
    /// Deterministic search effort of the flat path
    /// ([`ps_planner::PlanStats::work_units`]).
    pub work_flat: u64,
    /// Deterministic search effort of the hierarchical cold path.
    pub work_hier: u64,
    /// Deterministic search effort of the hierarchical warm path: its
    /// memo's recent plans seed the incumbent, and its routing rows and
    /// shortlists are built.
    pub work_warm: u64,
    /// Least-RTT candidate pairs the hierarchical cold plan's suffix
    /// bounds scanned ([`ps_planner::PlanStats::bound_pairs`]).
    pub bound_pairs: u64,
    /// Region segments solved by the cold hierarchical plan.
    pub segments: u32,
    /// Memo hits observed by the warm hierarchical plan.
    pub warm_memo_hits: u32,
    /// Candidate-universe size of the composed solve.
    pub universe: u32,
}

impl HierPlanMeasure {
    /// Flat-to-hierarchical cold wall speedup.
    pub fn wall_speedup(&self) -> f64 {
        self.flat_us as f64 / self.hier_cold_us.max(1) as f64
    }

    /// Flat-to-hierarchical deterministic work ratio — seed-stable, so
    /// `verify.sh` can guard it where the wall figures are stand-ins.
    pub fn work_speedup(&self) -> f64 {
        if self.work_hier == 0 {
            0.0
        } else {
            self.work_flat as f64 / self.work_hier as f64
        }
    }
}

/// Times a flat exhaustive cold plan against the hierarchical
/// gateway-composed path on the same request: cold (fresh
/// [`HierMemo`] every rep, so region segments are re-solved) and warm
/// (shared memo, so segment shortlists are hits). The flat objective
/// is the provable optimum; the composed objective may never beat it
/// (and `ps-bench scale` asserts it reaches it).
pub fn measure_hier_plan(
    net: &Network,
    server: NodeId,
    client: NodeId,
    reps: usize,
) -> HierPlanMeasure {
    let translator = mail_translator();
    let request = scale_request(server, client);

    let flat_planner = Planner::new(mail_spec());
    let mut flat_us = u64::MAX;
    let mut flat = None;
    for _ in 0..reps {
        let timer = WallTimer::start();
        let plan = flat_planner
            .plan(net, &translator, &request)
            .expect("flat plan");
        flat_us = flat_us.min(timer.elapsed_micros());
        flat = Some(plan);
    }
    let flat = flat.expect("at least one flat rep");

    let hier_planner = Planner::with_config(
        mail_spec(),
        PlannerConfig {
            hier: Some(HierConfig::default()),
            ..PlannerConfig::default()
        },
    );
    let mut hier_cold_us = u64::MAX;
    let mut hier = None;
    for _ in 0..reps {
        let memo = HierMemo::new();
        let timer = WallTimer::start();
        let plan = hier_planner
            .plan_hierarchical(net, &translator, &request, &memo)
            .expect("hier cold plan");
        hier_cold_us = hier_cold_us.min(timer.elapsed_micros());
        hier = Some(plan);
    }
    let hier = hier.expect("at least one hier rep");

    let memo = HierMemo::new();
    let populating = hier_planner
        .plan_hierarchical(net, &translator, &request, &memo)
        .expect("memo-populating plan");
    let mut hier_warm_us = u64::MAX;
    let mut warm_memo_hits = populating.stats.hier_memo_hits;
    let mut work_warm = populating.stats.work_units();
    for _ in 0..reps {
        let timer = WallTimer::start();
        let plan = hier_planner
            .plan_hierarchical(net, &translator, &request, &memo)
            .expect("hier warm plan");
        hier_warm_us = hier_warm_us.min(timer.elapsed_micros());
        warm_memo_hits = plan.stats.hier_memo_hits;
        work_warm = plan.stats.work_units();
    }

    // The flat exhaustive search is the optimum; composition can never
    // beat it.
    assert!(
        hier.objective_value + 1e-9 >= flat.objective_value,
        "hierarchical plan beat the exhaustive optimum: {} vs {}",
        hier.objective_value,
        flat.objective_value
    );

    let regions = ps_net::RegionMap::build(net).len();
    HierPlanMeasure {
        nodes: net.node_count(),
        regions,
        flat_us,
        hier_cold_us,
        hier_warm_us,
        flat_objective: flat.objective_value,
        hier_objective: hier.objective_value,
        work_flat: flat.stats.work_units(),
        work_hier: hier.stats.work_units(),
        work_warm,
        bound_pairs: hier.stats.bound_pairs,
        segments: hier.stats.hier_segments,
        warm_memo_hits,
        universe: hier.stats.hier_universe,
    }
}

/// Observability knobs for [`run_heal_workload`].
#[derive(Debug, Clone, Default)]
pub struct HealWorkloadOptions {
    /// Enable the world's time-series sampler with this config.
    pub sampler: Option<SamplerConfig>,
    /// Wire bytes per lease renewal charged to link utilization;
    /// `0` disables the accounting.
    pub lease_renewal_bytes: u64,
    /// Extra virtual time to idle after recovery before the final
    /// charge/sample, so steady-state lease renewals show up in the
    /// series (the bare workload ends within ~50 ms of the redeployed
    /// instances' lease grants).
    pub settle: Option<SimDuration>,
    /// Plan hierarchically (gateway composition + shared region memo)
    /// instead of the flat exhaustive path, populating the
    /// `planner.region.*` registry metrics the timeline report
    /// attributes plan time with.
    pub hier: bool,
}

/// Outcome of the chaos-style heal workload (virtual-time derived
/// except `wall_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct HealWorkloadOutcome {
    /// Nodes in the topology.
    pub nodes: usize,
    /// The crashed node.
    pub crashed: NodeId,
    /// Healing passes executed.
    pub heal_passes: usize,
    /// Successful redeployments across all passes.
    pub replans: usize,
    /// Re-plan passes that found nothing feasible.
    pub infeasible: usize,
    /// Virtual time of the lease-based node-down verdict, ms.
    pub detected_ms: Option<f64>,
    /// Virtual time after which the managed plan avoided the crashed
    /// node, ms.
    pub recovered_ms: Option<f64>,
    /// The managed connection's plan when the run ended (`None` once
    /// abandoned).
    pub plan: Option<Arc<Plan>>,
    /// Times the world's route rows built their routing view over the
    /// run rather than patching it (`net.routing_view.builds`).
    pub view_builds: usize,
    /// Segment shortlists the world's memo computed over the run's
    /// connect and heal replans (0 on the flat path).
    pub segments: u64,
    /// Wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Lease-renewal bytes charged to the network (0 when accounting
    /// was off).
    pub lease_renewal_bytes: u64,
    /// Time-series summaries, sorted by name (empty when the sampler
    /// was off).
    pub series: Vec<(String, SeriesSummary)>,
}

/// Runs the full self-healing stack on a scale topology: install the
/// mail service, connect and manage one branch client, crash a
/// mid-chain placement node at 1s virtual, then heal at each wake
/// until the plan avoids the crashed node. Leases are the failure
/// detector; no manual reconnects.
pub fn run_heal_workload(
    net: Network,
    server: NodeId,
    client: NodeId,
    seed: u64,
    tracer: &Tracer,
    options: &HealWorkloadOptions,
) -> HealWorkloadOutcome {
    let timer = WallTimer::start();
    let nodes = net.node_count();
    let mut framework = healing_mail_framework(net, server, tracer, seed, LeaseConfig::default());
    // Routes belong to the world's memo: lazy rows, flat or `hier`,
    // shared by the connect, every heal-pass redeploy and the world's
    // message routing, and carried across the epochs that left them
    // exact.
    framework.server.planner_config.hier = options.hier.then(HierConfig::default);
    enable_telemetry(&mut framework, options.sampler, options.lease_renewal_bytes);

    let request = scale_request(server, client);
    let conn = framework.connect("mail", &request).expect("connect");
    let victim = conn
        .plan
        .placements
        .iter()
        .map(|p| p.node)
        .find(|&n| n != client && n != server)
        .or_else(|| {
            // All components sit on the client and pinned server: crash
            // a route via-node instead so healing still has to act.
            conn.plan
                .edges
                .iter()
                .flat_map(|e| e.route.via.iter().copied())
                .find(|&n| n != client && n != server)
        })
        .expect("a crashable node in the plan");
    let handle = framework.manage("mail", request, conn);

    let crash_at = SimTime::from_nanos(1_000_000_000);
    let mut plan = FaultPlan::new();
    plan.crash(crash_at, victim.0);
    framework.world.install_fault_plan(&plan);

    let mut recovered_at = None;
    framework.run_until(crash_at);
    let mut heal = HealTally::default();
    while let Some(report) = framework.heal_next(SimTime::from_nanos(120_000_000_000)) {
        heal.record(&report);
        let recovered = heal.detected(victim).is_some()
            && framework.managed_connection(handle).is_some_and(|c| {
                c.plan.placements.iter().all(|p| p.node != victim)
                    && c.plan.edges.iter().all(|e| !e.route.via.contains(&victim))
            });
        if recovered {
            recovered_at = Some(report.at);
            break;
        }
    }
    let (series, lease_renewal_bytes) = drain(&mut framework, options.settle);

    HealWorkloadOutcome {
        nodes,
        crashed: victim,
        heal_passes: heal.passes,
        replans: heal.replans,
        infeasible: heal.infeasible,
        detected_ms: heal.detected(victim).map(ms),
        recovered_ms: recovered_at.map(ms),
        plan: framework.managed_connection(handle).map(|c| c.plan.clone()),
        view_builds: framework.world.routing_view_builds(),
        segments: framework.world.shortlists_computed(),
        wall_ms: timer.elapsed_ms(),
        lease_renewal_bytes,
        series,
    }
}

/// What a connect from a sibling of the scale client costs
/// ([`measure_sibling_connect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiblingConnect {
    /// Property flows the sibling's plan computed
    /// ([`ps_planner::PlanStats::flow_evals`]).
    pub flows: u64,
    /// Dijkstra rows the world's memo ran for the sibling's connect.
    pub dijkstra_rows: usize,
}

/// Adds a second partner-grade workstation on `client`'s uplink of
/// [`scale_network`]'s world, connects `client` and then the sibling
/// (hierarchical planning, one world memo), and reports what the
/// sibling's connect computed: the flows and Dijkstra rows its sibling's
/// connect left in the memo at the same epoch are read, not redone.
pub fn measure_sibling_connect(mut net: Network, server: NodeId, client: NodeId) -> SiblingConnect {
    let &(uplink, link) = net.neighbours(client).first().expect("the client's uplink");
    let (latency, bandwidth) = (net.link(link).latency, net.link(link).bandwidth_bps);
    let credentials = net.node(client).credentials.clone();
    let sibling = net.add_node("as1-client-sibling", "as1", 1.0, credentials);
    let secure = net.link(link).credentials.clone();
    net.add_link(uplink, sibling, latency, bandwidth, secure);
    let mut framework = mail_framework(net, server, &Tracer::disabled());
    framework.server.planner_config.hier = Some(HierConfig::default());
    framework
        .connect("mail", &scale_request(server, client))
        .expect("the client connects");
    let runs = framework.world.route_dijkstra_runs();
    let conn = framework
        .connect("mail", &scale_request(server, sibling))
        .expect("the sibling connects");
    SiblingConnect {
        flows: conn.plan.stats.flow_evals,
        dijkstra_rows: framework.world.route_dijkstra_runs() - runs,
    }
}

/// Total routers per scaling step.
const WORLDS: [usize; 4] = [100, 250, 500, 1000];
/// Timed repetitions per measurement (fastest run reported).
const REPS: usize = 5;
/// Seed for all topologies and workloads.
const SEED: u64 = 7_000;

/// One world's row of `BENCH_scale.json`.
fn world_record(hier: &HierPlanMeasure, links: usize) -> Record {
    let wall_us = |us: u64| wall(us, 0u64);
    let plan = Record::new()
        .with("regions", hier.regions)
        .with("flat_us", wall_us(hier.flat_us))
        .with("cold_us", wall_us(hier.hier_cold_us))
        .with("warm_us", wall_us(hier.hier_warm_us))
        .with("wall_speedup", wall_num(hier.wall_speedup(), 3))
        .with("work_flat", hier.work_flat)
        .with("work_hier", hier.work_hier)
        .with("work_warm", hier.work_warm)
        .with("bound_pairs", hier.bound_pairs)
        .with("work_speedup", num(hier.work_speedup(), 3))
        .with("flat_objective", num(hier.flat_objective, 6))
        .with("hier_objective", num(hier.hier_objective, 6))
        .with("segments", hier.segments)
        .with("warm_memo_hits", hier.warm_memo_hits)
        .with("universe", hier.universe);
    Record::new()
        .with("routers", hier.nodes)
        .with("links", links)
        .with("hier", plan)
}

/// `ps-bench scale`: flat vs hierarchical cold planning at 100–1000
/// routers (identical objectives asserted, and a ≥ 5× cold wall speedup
/// at 1000), then the full self-healing stack through a crash on the
/// 1000-router world, then a sibling connect there. Writes
/// `BENCH_scale.json`.
pub fn command(_: &Args) -> Result<Artifact, String> {
    let mut worlds = Vec::new();
    for &routers in &WORLDS {
        let (net, server, client) = scale_network(routers, SEED + routers as u64);
        eprintln!("[scale] {routers} routers: hierarchical plan...");
        let hier = measure_hier_plan(&net, server, client, REPS);
        if routers >= 1000 {
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
        worlds.push(world_record(&hier, net.link_count()));
    }

    // The full self-healing stack on the largest world: crash a
    // mid-chain node, heal at each wake, leases as the detector.
    let routers = WORLDS[WORLDS.len() - 1];
    eprintln!("[scale] {routers} routers: heal workload...");
    let (net, server, client) = scale_network(routers, SEED + routers as u64);
    let heal = run_heal_workload(
        net,
        server,
        client,
        SEED,
        &Tracer::disabled(),
        &HealWorkloadOptions {
            hier: true,
            ..HealWorkloadOptions::default()
        },
    );
    assert!(
        heal.recovered_ms.is_some(),
        "1000-router heal workload did not recover within the horizon"
    );
    let opt_ms = |v: Option<f64>| v.map(|v| num(v, 3));
    let heal = Record::new()
        .with("nodes", heal.nodes)
        .with("crashed", heal.crashed.0)
        .with("heal_passes", heal.heal_passes)
        .with("replans", heal.replans)
        .with("infeasible", heal.infeasible)
        .with("detected_ms", opt_ms(heal.detected_ms))
        .with("recovered_ms", opt_ms(heal.recovered_ms))
        .with("view_builds", heal.view_builds)
        .with("segments", heal.segments)
        .with("wall_ms", wall_num(heal.wall_ms, 3));

    // A connect from the branch client's sibling on the same world.
    let (net, server, client) = scale_network(routers, SEED + routers as u64);
    let nodes = net.node_count() + 1;
    let sibling = measure_sibling_connect(net, server, client);
    let sibling = Record::new()
        .with("nodes", nodes)
        .with("flows", sibling.flows)
        .with("dijkstra_rows", sibling.dijkstra_rows);

    let record = Record::new()
        .with("bench", "scale")
        .with("worlds", worlds)
        .with("heal_1000", heal)
        .with("sibling_connect", sibling);
    let mut artifact = Artifact::new("Thousand-node scaling: hierarchical planning");
    artifact.file("BENCH_scale.json", record);
    Ok(artifact)
}
