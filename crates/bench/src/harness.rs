//! The heal-scenario harness the fault scenarios share (`chaos`,
//! `partition`, the scale heal workload) and the case-study commands reuse:
//! one mail-service assembly, the case study's San Diego + Seattle pair,
//! one pass tally, one cluster-driver accessor, and the counter dump and
//! record helpers of the artifacts.
//!
//! The scenarios drive the §6 loop — monitoring reports a change, the
//! planner re-runs, the run-time redeploys — through
//! [`Framework::heal_next`]: a pass runs at each wake (a liveness event
//! entering the world's stream) plus [`ps_core::HEAL_DEBOUNCE`], never
//! on a tick, so a quiet stretch runs no pass and no recovery figure
//! waits on a cadence.

use crate::record::{num, Record, Value};
use ps_core::{Framework, HealReport, ManagedId};
use ps_mail::spec::names::*;
use ps_mail::workload::{ClusterConfig, ClusterDriver};
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::{CaseStudy, Network, NodeId};
use ps_planner::ServiceRequest;
use ps_sim::{SimDuration, SimTime};
use ps_smock::{
    CoherencePolicy, InstanceId, LeaseConfig, LivenessKind, RetryPolicy, ServiceRegistration, World,
};
use ps_spec::{Behavior, ResolvedBindings};
use ps_trace::{Metric, SamplerConfig, SeriesSummary, Tracer};

/// The mail service on `network`: its components registered, the
/// service registered with a 32 KiB proxy and homed on `server`, the
/// primary `MailServer` installed there, and `tracer` across the stack.
pub fn mail_framework(network: Network, server: NodeId, tracer: &Tracer) -> Framework {
    let mut framework = Framework::new(network, server, Box::new(mail_translator()));
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
    framework
}

/// [`mail_framework`] armed for a fault run: self-healing on, every
/// invoke retried (3 attempts, 2 s timeout, ×2 backoff), leases as the
/// failure detector, and `seed` for the world's loss draws.
pub(crate) fn healing_mail_framework(
    network: Network,
    server: NodeId,
    tracer: &Tracer,
    seed: u64,
    lease: LeaseConfig,
) -> Framework {
    let mut framework = mail_framework(network, server, tracer);
    framework.enable_self_healing();
    framework.world.enable_retry(RetryPolicy {
        max_attempts: 3,
        timeout: SimDuration::from_secs(2),
        backoff_multiplier: 2.0,
        deadline: None,
    });
    framework.world.enable_leases(lease);
    framework.world.set_fault_seed(seed);
    framework
}

/// Turns on the world's time-series sampler and the accounting of
/// `lease_renewal_bytes` per lease renewal; `None` and `0` leave them
/// off.
pub(crate) fn enable_telemetry(
    framework: &mut Framework,
    sampler: Option<SamplerConfig>,
    lease_renewal_bytes: u64,
) {
    if let Some(sampler) = sampler {
        framework.enable_sampler(sampler);
    }
    if lease_renewal_bytes > 0 {
        framework.account_lease_traffic(lease_renewal_bytes);
    }
}

/// Drains the world, idles a further `settle` of virtual time when
/// given, then charges the lease-renewal tail and takes a final sample.
/// Returns the series summaries (sorted by name; empty without a
/// sampler) and the renewal bytes charged (0 without accounting).
pub(crate) fn drain(
    framework: &mut Framework,
    settle: Option<SimDuration>,
) -> (Vec<(String, SeriesSummary)>, u64) {
    framework.run();
    if let Some(settle) = settle {
        let end = framework.world.now() + settle;
        framework.run_until(end);
    }
    framework.world.charge_lease_renewals();
    if framework.world.sampler().is_some() {
        framework.world.sample_now();
    }
    let series = framework
        .world
        .sampler()
        .map(|s| s.summaries())
        .unwrap_or_default();
    (series, framework.world.lease_renewal_bytes())
}

/// The mail request every bench plans: `client` onto the `MailServer`
/// pinned at `server` at `rate` requests/s, with `TrustLevel` `trust`
/// required.
pub fn mail_request(client: NodeId, server: NodeId, trust: i64, rate: f64) -> ServiceRequest {
    ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(rate)
        .pin(MAIL_SERVER, server)
        .origin(server)
        .require("TrustLevel", trust)
}

/// A case-study site's mail request: `client` onto the pinned New York
/// `MailServer` at 5 requests/s, with `TrustLevel` `trust` required.
pub fn site_request(cs: &CaseStudy, client: NodeId, trust: i64) -> ServiceRequest {
    mail_request(client, cs.mail_server, trust, 5.0)
}

/// The three §4.2 client sites in connect order: name, client node and
/// the trust level its request requires.
pub fn case_study_sites(cs: &CaseStudy) -> [(&'static str, NodeId, i64); 3] {
    [
        ("NewYork", cs.ny_client, 4),
        ("SanDiego", cs.sd_client, 4),
        ("Seattle", cs.seattle_client, 1),
    ]
}

/// One managed case-study connection and the cluster driver on it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ManagedSite {
    /// The healer's handle on the connection.
    pub handle: ManagedId,
    /// The closed-loop driver instance.
    pub driver: InstanceId,
}

/// Connects San Diego (trust 4) first, deploying the shared view chain,
/// then Seattle (trust 1), which chains onto it exactly as in Figure 6;
/// puts both connections under management and wires a cluster driver
/// onto each, `sd_ops` / `seattle_ops` sends and receives drawn from
/// `seed`. Returns (San Diego, Seattle).
pub(crate) fn connect_pair(
    framework: &mut Framework,
    cs: &CaseStudy,
    seed: u64,
    sd_ops: (u32, u32),
    seattle_ops: (u32, u32),
) -> (ManagedSite, ManagedSite) {
    let mut managed = |client: NodeId, trust: i64| {
        let request = site_request(cs, client, trust);
        let connection = framework.connect("mail", &request).expect("connect");
        let root = connection.root;
        (framework.manage("mail", request, connection), root)
    };
    let (sd_handle, sd_root) = managed(cs.sd_client, 4);
    let (sea_handle, sea_root) = managed(cs.seattle_client, 1);
    let world = &mut framework.world;
    (
        ManagedSite {
            handle: sd_handle,
            driver: spawn_driver(
                world,
                "SanDiego",
                cs.sd_client,
                sd_root,
                sd_ops,
                1 << 40,
                seed ^ 0x5D,
            ),
        },
        ManagedSite {
            handle: sea_handle,
            driver: spawn_driver(
                world,
                "Seattle",
                cs.seattle_client,
                sea_root,
                seattle_ops,
                2 << 40,
                seed ^ 0x5EA,
            ),
        },
    )
}

/// Instantiates a closed-loop cluster driver for `site` on `node`,
/// wired to `root`: `ops` sends and receives of 1–3 KiB bodies at
/// sensitivity 1–2, message ids from `id_base`, draws from `seed`.
pub fn spawn_driver(
    world: &mut World,
    site: &str,
    node: NodeId,
    root: InstanceId,
    ops: (u32, u32),
    id_base: u64,
    seed: u64,
) -> InstanceId {
    let driver = ClusterDriver::new(ClusterConfig {
        user: format!("user-{site}"),
        peers: vec![format!("user-{site}")],
        sends: ops.0,
        receives: ops.1,
        body_bytes: (1024, 3072),
        sensitivity: (1, 2),
        id_base,
        seed,
    });
    let id = world.instantiate(
        format!("driver-{site}"),
        node,
        ResolvedBindings::new(),
        Behavior::new(),
        Box::new(driver),
        world.now(),
    );
    world.wire(id, vec![root]);
    id
}

/// The cluster driver instance `id` runs.
pub(crate) fn driver(world: &mut World, id: InstanceId) -> &ClusterDriver {
    world
        .logic_mut(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<ClusterDriver>())
        .expect("cluster driver")
}

/// Closed-loop driver statistics extracted after the run.
#[derive(Debug, Clone, Copy)]
pub struct DriverStats {
    /// Operations that completed with a reply.
    pub completed: usize,
    /// Operations completed before the fault fired.
    pub completed_before_crash: usize,
    /// Operations the retry policy gave up on.
    pub lost: u32,
    /// Replies that came back `Denied`.
    pub denied: u32,
    /// Whether the driver finished its whole workload.
    pub done: bool,
}

/// [`DriverStats`] of driver `id`, `before_fault` of its operations
/// completed before the fault.
pub(crate) fn driver_stats(world: &mut World, id: InstanceId, before_fault: usize) -> DriverStats {
    let driver = driver(world, id);
    DriverStats {
        completed: driver.completed.len(),
        completed_before_crash: before_fault,
        lost: driver.lost,
        denied: driver.denied,
        done: driver.is_done(),
    }
}

/// What a run's heal passes did, tallied pass by pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct HealTally {
    /// Healing passes executed.
    pub passes: usize,
    /// Successful redeployments across all passes.
    pub replans: usize,
    /// Infeasible re-plan outcomes across all passes.
    pub infeasible: usize,
    /// Instances retired across all passes.
    pub retired: usize,
    /// Nodes quarantined, in pass order.
    pub quarantined: Vec<NodeId>,
    /// The first `NodeDown` verdict per node, in verdict order.
    node_down: Vec<(NodeId, SimTime)>,
}

impl HealTally {
    /// When the lease detector first declared `node` down, if it has.
    pub fn detected(&self, node: NodeId) -> Option<SimTime> {
        self.node_down
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, at)| at)
    }

    /// Adds one pass's report.
    pub fn record(&mut self, report: &HealReport) {
        self.passes += 1;
        self.replans += report.recovered.len();
        self.infeasible += report.infeasible.len();
        self.retired += report.retired.len();
        self.quarantined.extend(report.quarantined.iter().copied());
        for event in &report.liveness {
            if let LivenessKind::NodeDown { node } = event.kind {
                if self.detected(node).is_none() {
                    self.node_down.push((node, event.at));
                }
            }
        }
    }
}

/// The run's deterministic counters — `world.*`, `heal.*`, `replan.*`,
/// `monitor.*` and `server.connects` — sorted by name; empty when
/// `tracer` is disabled.
pub(crate) fn counters(tracer: &Tracer) -> Vec<(String, u64)> {
    let Some(registry) = tracer.registry() else {
        return Vec::new();
    };
    let mut counters: Vec<(String, u64)> = registry
        .snapshot()
        .into_iter()
        .filter(|(name, _)| {
            ["world.", "heal.", "replan.", "monitor."]
                .iter()
                .any(|prefix| name.starts_with(prefix))
                || name == "server.connects"
        })
        .filter_map(|(name, metric)| match metric {
            Metric::Counter(c) => Some((name, c)),
            _ => None,
        })
        .collect();
    counters.sort();
    counters
}

/// Virtual time in milliseconds.
pub(crate) fn ms(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1_000_000.0
}

/// Virtual nanoseconds as a millisecond figure, 4 decimals.
pub(crate) fn ns_ms(ns: u64) -> Value {
    num(ns as f64 / 1_000_000.0, 4)
}

/// An optional instant as a virtual-millisecond figure.
pub(crate) fn at_ms(t: Option<SimTime>) -> Value {
    t.map(|t| num(ms(t), 3)).into()
}

/// An optional duration as a virtual-millisecond figure.
pub(crate) fn span_ms(d: Option<SimDuration>) -> Value {
    d.map(|d| num(d.as_millis_f64(), 3)).into()
}

/// A driver's figures: `completed`, `completed_before_<fault>`, then
/// `completed_during_<fault>` when given, `lost`, `denied` and `done`.
pub(crate) fn driver_record(d: &DriverStats, fault: &str, during: Option<usize>) -> Record {
    let mut record = Record::new().with("completed", d.completed).with(
        format!("completed_before_{fault}"),
        d.completed_before_crash,
    );
    if let Some(during) = during {
        record.push(format!("completed_during_{fault}"), during);
    }
    record
        .with("lost", d.lost)
        .with("denied", d.denied)
        .with("done", d.done)
}

/// The closing figures every scenario record shares: the counter
/// object, messages carried and the completion time.
pub(crate) fn close_record(
    record: Record,
    counters: &[(String, u64)],
    messages: u64,
    completed_at: SimTime,
) -> Record {
    let counters = counters
        .iter()
        .fold(Record::new(), |r, (name, value)| r.with(name, *value));
    record
        .with("counters", counters)
        .with("messages", messages)
        .with("completed_at_ms", num(ms(completed_at), 3))
}
