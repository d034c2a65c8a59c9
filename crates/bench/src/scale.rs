//! Thousand-node scaling studies backing the `bench_scale` binary, over
//! progressively larger BRITE hierarchies:
//!
//! 1. **Flat vs hierarchical planning** — a cold flat plan against the
//!    gateway-composed one, cold and memo-warm, in wall time and in
//!    deterministic work units.
//! 2. **Heal workload** — a chaos-style crash-and-recover run of the
//!    full self-healing stack on the same topology, all outcomes
//!    virtual-time derived.
//! 3. **Open loop** — a client population against the hierarchical
//!    planner.
//!
//! Everything wall-clock derived is zeroed by the caller in stable
//! mode; the remaining fields are deterministic for a fixed seed.

use ps_core::Framework;
use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{Credentials, Network, NodeId};
use ps_planner::{HierConfig, HierMemo, Plan, Planner, PlannerConfig, ServiceRequest};
use ps_sim::{FaultPlan, Rng, SimDuration, SimTime};
use ps_smock::{CoherencePolicy, LeaseConfig, LivenessKind, RetryPolicy, ServiceRegistration};
use ps_trace::{SamplerConfig, SeriesSummary, Tracer, WallTimer};

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
/// [`HOSTS_PER_SITE`] routers of `as0` (HQ, TrustRating 5, company)
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
    ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(2.0)
        .pin(MAIL_SERVER, server)
        .origin(server)
        .free_root()
        .require("TrustLevel", 4i64)
}

fn scale_planner() -> Planner {
    Planner::new(mail_spec())
}

/// Flat vs hierarchical cold planning on one world.
#[derive(Debug, Clone, Copy)]
pub struct HierPlanMeasure {
    /// Nodes in the network.
    pub nodes: usize,
    /// Regions (BRITE autonomous systems) in the fabric.
    pub regions: usize,
    /// Flat from-scratch plan, microseconds (wall; zeroed in stable
    /// mode).
    pub flat_us: u64,
    /// Hierarchical plan with a fresh memo every rep — the true cold
    /// path — microseconds (wall; zeroed in stable mode).
    pub hier_cold_us: u64,
    /// Hierarchical plan against a pre-populated memo, microseconds
    /// (wall; zeroed in stable mode).
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
    /// Region segments solved by the cold hierarchical plan.
    pub segments: u32,
    /// Memo hits observed by the warm hierarchical plan.
    pub warm_memo_hits: u32,
    /// Candidate-universe size of the composed solve.
    pub universe: u32,
}

impl HierPlanMeasure {
    /// Flat-to-hierarchical cold wall speedup (0 when zeroed).
    pub fn wall_speedup(&self) -> f64 {
        if self.hier_cold_us == 0 {
            0.0
        } else {
            self.flat_us as f64 / self.hier_cold_us as f64
        }
    }

    /// Flat-to-hierarchical deterministic work ratio — seed-stable, so
    /// `verify.sh` can guard it in stable mode where wall clocks are
    /// zeroed.
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
/// (and `bench_scale` asserts it reaches it).
pub fn measure_hier_plan(
    net: &Network,
    server: NodeId,
    client: NodeId,
    reps: usize,
) -> HierPlanMeasure {
    let translator = mail_translator();
    let request = scale_request(server, client);

    let flat_planner = scale_planner();
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
    let warm_seed = hier_planner
        .plan_hierarchical(net, &translator, &request, &memo)
        .expect("memo-populating plan");
    let mut hier_warm_us = u64::MAX;
    let mut warm_memo_hits = warm_seed.stats.hier_memo_hits;
    for _ in 0..reps {
        let timer = WallTimer::start();
        let plan = hier_planner
            .plan_hierarchical(net, &translator, &request, &memo)
            .expect("hier warm plan");
        hier_warm_us = hier_warm_us.min(timer.elapsed_micros());
        warm_memo_hits = plan.stats.hier_memo_hits;
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
        segments: hier.stats.hier_segments,
        warm_memo_hits,
        universe: hier.stats.hier_universe,
    }
}

/// Knobs for the open-loop client-population run, overridable from the
/// environment (`PS_OPENLOOP_CLIENTS`, `PS_OPENLOOP_ARRIVALS`,
/// `PS_OPENLOOP_ATTACH`).
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Logical leaf-client population size.
    pub clients: u64,
    /// Connect arrivals to drive through the gateway.
    pub arrivals: u64,
    /// Distinct attachment routers the population hangs off.
    pub attach_routers: usize,
    /// Seed for the arrival process and popularity draw.
    pub seed: u64,
    /// Diurnal period, virtual hours.
    pub day_hours: f64,
    /// Peak arrival rate, connects per virtual second.
    pub peak_rps: f64,
    /// Popularity skew: client rank drawn as `u^tail_alpha`, so larger
    /// values concentrate arrivals on fewer logical clients
    /// (heavy-tailed sessions).
    pub tail_alpha: f64,
}

impl OpenLoopConfig {
    /// Defaults (120k clients, 150k arrivals, 256 attachment routers),
    /// with env overrides applied and the arrival count reduced in
    /// stable mode where wall-derived outputs are zeroed anyway.
    pub fn from_env(seed: u64, stable: bool) -> Self {
        let env_u64 = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        OpenLoopConfig {
            clients: env_u64("PS_OPENLOOP_CLIENTS", 120_000),
            arrivals: env_u64(
                "PS_OPENLOOP_ARRIVALS",
                if stable { 20_000 } else { 150_000 },
            ),
            attach_routers: env_u64("PS_OPENLOOP_ATTACH", 256) as usize,
            seed,
            day_hours: 24.0,
            peak_rps: 4.0,
            tail_alpha: 1.6,
        }
    }
}

/// Outcome of the open-loop population run. Everything except the
/// `wall_ms`-derived fields is deterministic for a fixed seed.
#[derive(Debug, Clone)]
pub struct OpenLoopOutcome {
    /// Logical client population.
    pub clients: u64,
    /// Arrivals driven.
    pub arrivals: u64,
    /// Distinct logical clients that actually connected.
    pub distinct_clients: u64,
    /// Attachment routers carrying the population.
    pub attach_routers: usize,
    /// Full hierarchical plans executed (per-attachment cache misses).
    pub plans: u64,
    /// Arrivals served from the per-attachment plan cache.
    pub cache_hits: u64,
    /// Region-shortlist memo hits across all plans (shared memo).
    pub memo_hits: u64,
    /// Region segments solved (memo misses).
    pub memo_misses: u64,
    /// Virtual span of the arrival process, hours.
    pub virtual_hours: f64,
    /// Arrivals in the busiest virtual hour.
    pub peak_hour_arrivals: u64,
    /// Arrivals in the quietest complete virtual hour.
    pub trough_hour_arrivals: u64,
    /// Wall time of the whole drive, ms (zeroed in stable mode by the
    /// caller).
    pub wall_ms: f64,
    /// Sustained connect throughput, arrivals per wall second (zeroed
    /// in stable mode by the caller).
    pub connects_per_sec: f64,
    /// Plan-latency percentiles over the cache-miss plans, wall ms
    /// (zeroed in stable mode by the caller).
    pub plan_p50_ms: f64,
    /// 99th percentile plan latency, wall ms.
    pub plan_p99_ms: f64,
    /// Worst plan latency, wall ms.
    pub plan_max_ms: f64,
}

/// Drives an open-loop client population against the hierarchical
/// planner: a seeded inhomogeneous-Poisson arrival process (thinned
/// against a diurnal sine profile) draws heavy-tailed logical client
/// ranks, maps each onto one of `attach_routers` leaf attachment
/// points spread across the fabric, and serves every arrival the way a
/// gateway would — a per-attachment plan-cache lookup, falling through
/// to a full gateway-composed solve sharing one [`HierMemo`]. Arrivals
/// are open-loop: the process never waits for a previous connect, so
/// the measured rate is offered load, not closed-loop feedback.
///
/// Mutates `net` by attaching the leaf client nodes.
pub fn run_open_loop(
    net: &mut Network,
    server: NodeId,
    cfg: &OpenLoopConfig,
    tracer: &Tracer,
) -> OpenLoopOutcome {
    // Attachment points: leaf workstations hung off routers sampled
    // round-robin across the whole fabric (every site, not just the
    // datacenters), partner-grade like the standard scale client so
    // the chain spreads into the datacenters.
    let lan = SimDuration::from_nanos(100_000);
    let routers: Vec<NodeId> = net.node_ids().filter(|&n| net.node(n).up).collect();
    let stride = (routers.len() / cfg.attach_routers).max(1);
    let mut attach_nodes = Vec::with_capacity(cfg.attach_routers);
    for i in 0..cfg.attach_routers {
        let uplink = routers[(i * stride) % routers.len()];
        let site = net.node(uplink).site.clone();
        let leaf = net.add_node(
            format!("ol-client-{i}"),
            site,
            1.0,
            Credentials::new()
                .with("TrustRating", 4i64)
                .with("Domain", "partner"),
        );
        net.add_link(
            uplink,
            leaf,
            lan,
            1e9,
            Credentials::new().with("Secure", true),
        );
        attach_nodes.push(leaf);
    }

    let translator = mail_translator();
    let planner = Planner::with_config(
        mail_spec(),
        PlannerConfig {
            hier: Some(HierConfig::default()),
            ..PlannerConfig::default()
        },
    );
    let memo = HierMemo::new();
    let mut plan_cache: Vec<Option<Plan>> = vec![None; cfg.attach_routers];
    let mut seen = vec![0u64; (cfg.clients as usize).div_ceil(64)];
    let mut hour_counts: Vec<u64> = Vec::new();

    let mut rng = Rng::seed_from_u64(cfg.seed).derive("open-loop");
    let mut t_sec = 0.0f64;
    let mut arrivals = 0u64;
    let mut distinct = 0u64;
    let mut plans = 0u64;
    let mut cache_hits = 0u64;
    let timer = WallTimer::start();
    while arrivals < cfg.arrivals {
        // Inhomogeneous Poisson by thinning: candidate arrivals at the
        // peak rate, accepted with probability lambda(t)/peak where
        // lambda follows a day-night sine (trough = 20% of peak).
        t_sec += rng.exponential(cfg.peak_rps);
        let phase = 2.0 * std::f64::consts::PI * (t_sec / 3_600.0) / cfg.day_hours;
        let lambda_frac = 0.6 + 0.4 * phase.sin();
        if !rng.chance(lambda_frac) {
            continue;
        }
        arrivals += 1;
        let hour = (t_sec / 3_600.0) as usize;
        if hour_counts.len() <= hour {
            hour_counts.resize(hour + 1, 0);
        }
        hour_counts[hour] += 1;

        // Heavy-tailed popularity: rank u^alpha concentrates repeat
        // sessions on low client ids while the tail still touches the
        // whole population.
        let u = rng.next_f64();
        let client_id = ((u.powf(cfg.tail_alpha)) * cfg.clients as f64) as u64 % cfg.clients;
        let (word, bit) = ((client_id / 64) as usize, client_id % 64);
        if seen[word] & (1 << bit) == 0 {
            seen[word] |= 1 << bit;
            distinct += 1;
        }
        let attach = (client_id % cfg.attach_routers as u64) as usize;

        if plan_cache[attach].is_some() {
            cache_hits += 1;
            tracer.count("openloop.cache_hits", 1);
            continue;
        }
        let request = scale_request(server, attach_nodes[attach]);
        let plan_timer = WallTimer::start();
        let plan = planner
            .plan_hierarchical(net, &translator, &request, &memo)
            .expect("open-loop plan");
        tracer.observe("openloop.plan_wall_ms", plan_timer.elapsed_ms());
        tracer.count("openloop.plans", 1);
        plans += 1;
        plan_cache[attach] = Some(plan);
    }
    let wall_ms = timer.elapsed_ms();

    let hist = tracer
        .registry()
        .and_then(|r| r.histogram("openloop.plan_wall_ms"));
    let (p50, p99, max) = hist
        .map(|h| (h.p50(), h.p99(), h.max))
        .unwrap_or((0.0, 0.0, 0.0));
    let complete_hours = hour_counts.len().saturating_sub(1);
    OpenLoopOutcome {
        clients: cfg.clients,
        arrivals,
        distinct_clients: distinct,
        attach_routers: cfg.attach_routers,
        plans,
        cache_hits,
        memo_hits: memo.hits(),
        memo_misses: memo.misses(),
        virtual_hours: t_sec / 3_600.0,
        peak_hour_arrivals: hour_counts.iter().copied().max().unwrap_or(0),
        trough_hour_arrivals: hour_counts[..complete_hours.max(1)]
            .iter()
            .copied()
            .min()
            .unwrap_or(0),
        wall_ms,
        connects_per_sec: if wall_ms > 0.0 {
            arrivals as f64 / (wall_ms / 1_000.0)
        } else {
            0.0
        },
        plan_p50_ms: p50,
        plan_p99_ms: p99,
        plan_max_ms: max,
    }
}

/// Observability knobs for [`run_heal_workload_with`].
#[derive(Debug, Clone, Default)]
pub struct HealWorkloadOptions {
    /// Lease parameters; `None` keeps [`LeaseConfig::default`].
    pub lease: Option<LeaseConfig>,
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
#[derive(Debug, Clone)]
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
    /// Wall time of the whole run, milliseconds (zeroed in stable
    /// mode by the caller).
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
/// mid-chain placement node at 1s virtual, then heal on a 1s cadence
/// until the plan avoids the crashed node. Leases are the failure
/// detector; no manual reconnects.
pub fn run_heal_workload(
    net: Network,
    server: NodeId,
    client: NodeId,
    seed: u64,
    tracer: &Tracer,
) -> HealWorkloadOutcome {
    run_heal_workload_with(
        net,
        server,
        client,
        seed,
        tracer,
        &HealWorkloadOptions::default(),
    )
}

/// [`run_heal_workload`] with observability knobs: lease override,
/// time-series sampling, and lease-renewal traffic accounting.
pub fn run_heal_workload_with(
    net: Network,
    server: NodeId,
    client: NodeId,
    seed: u64,
    tracer: &Tracer,
    options: &HealWorkloadOptions,
) -> HealWorkloadOutcome {
    let timer = WallTimer::start();
    let nodes = net.node_count();
    let mut framework = Framework::new(net, server, Box::new(mail_translator()));
    // Routes belong to the server's memo: lazy rows, flat or `hier`,
    // shared by the connect and every heal-pass redeploy and carried
    // across the epochs that left them exact.
    framework.planner_config(PlannerConfig {
        hier: options.hier.then(HierConfig::default),
        ..PlannerConfig::default()
    });
    framework.enable_self_healing();
    framework.set_tracer(tracer.clone());
    register_mail_components(
        &mut framework.server.registry,
        Keyring::new(1),
        CoherencePolicy::CountLimit(500),
    );
    framework.register_service(
        ServiceRegistration::new(mail_spec())
            .attribute("type", "mail")
            .proxy_code_size(32 * 1024)
            .home_node(server),
    );
    framework
        .install_primary("mail", MAIL_SERVER, server)
        .expect("primary");
    framework.world.enable_retry(RetryPolicy {
        max_attempts: 3,
        timeout: SimDuration::from_secs(2),
        backoff_multiplier: 2.0,
        deadline: None,
    });
    framework
        .world
        .enable_leases(options.lease.unwrap_or_default());
    framework.world.set_fault_seed(seed);
    if let Some(sampler) = options.sampler {
        framework.enable_sampler(sampler);
    }
    if options.lease_renewal_bytes > 0 {
        framework.account_lease_traffic(options.lease_renewal_bytes);
    }

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

    let horizon = SimTime::from_nanos(120_000_000_000);
    let heal_period = SimDuration::from_secs(1);
    let mut detected_at = None;
    let mut recovered_at = None;
    let mut replans = 0;
    let mut infeasible = 0;
    let mut heal_passes = 0;
    framework.run_until(crash_at);
    let mut now = crash_at;
    while now < horizon {
        now += heal_period;
        framework.run_until(now);
        let report = framework.heal();
        heal_passes += 1;
        replans += report.recovered.len();
        infeasible += report.infeasible.len();
        for event in &report.liveness {
            if let LivenessKind::NodeDown { node } = event.kind {
                if node == victim && detected_at.is_none() {
                    detected_at = Some(event.at);
                }
            }
        }
        if detected_at.is_some() && recovered_at.is_none() {
            let healthy = framework.managed_connection(handle).is_some_and(|c| {
                c.plan.placements.iter().all(|p| p.node != victim)
                    && c.plan
                        .edges
                        .iter()
                        .all(|e| e.route.via.iter().all(|&n| n != victim))
            });
            if healthy {
                recovered_at = Some(report.at);
            }
        }
        if recovered_at.is_some() {
            break;
        }
    }
    framework.run();
    if let Some(settle) = options.settle {
        let end = framework.world.now() + settle;
        framework.world.run_until(end);
    }
    framework.world.charge_lease_renewals();
    if options.sampler.is_some() {
        framework.world.sample_now();
    }
    let series = framework
        .world
        .sampler()
        .map(|s| s.summaries())
        .unwrap_or_default();
    let lease_renewal_bytes = framework.world.lease_renewal_bytes();

    let ms = |t: SimTime| t.as_nanos() as f64 / 1_000_000.0;
    HealWorkloadOutcome {
        nodes,
        crashed: victim,
        heal_passes,
        replans,
        infeasible,
        detected_ms: detected_at.map(ms),
        recovered_ms: recovered_at.map(ms),
        wall_ms: timer.elapsed_ms(),
        lease_renewal_bytes,
        series,
    }
}
