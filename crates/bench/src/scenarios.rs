//! The nine Figure 7 scenarios.
//!
//! Dynamic scenarios (`DF`, `DS0`, `DS500`, `DS1000`) let the framework
//! plan and deploy; static scenarios (`SF`, `SS0`, `SS500`, `SS1000`,
//! `SS`) hand-build the corresponding deployments, providing the paper's
//! baseline. `SS` is the naive static deployment: clients connect to the
//! New York `MailServer` directly across the slow link, unaware of it.
//!
//! Names follow the paper: `D`/`S` = dynamic/static, `F`/`S` =
//! fast (New York clients) / slow (San Diego clients), suffix = the
//! coherence policy's unpropagated-message limit (0 = no coherence
//! traffic).
//!
//! **Workload scaling.** The paper's clients send 100 messages each; its
//! coherence limits are 500 and 1000 unpropagated messages. With ≤5×100
//! messages a 1000-limit would never fire, so the default workload here
//! sends `msgs_per_client = 2000`, engaging both limits repeatedly;
//! EXPERIMENTS.md records the shape criteria rather than absolute
//! milliseconds.

use crate::harness::mail_request;
use ps_core::Framework;
use ps_mail::spec::names::*;
use ps_mail::workload::{ClusterConfig, ClusterDriver, RECEIVE_METRIC, SEND_METRIC};
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::casestudy::{self, CaseStudy};
use ps_sim::{SimTime, Summary};
use ps_smock::{
    CoherencePolicy, ComponentRegistry, FactoryArgs, InstanceId, OneTimeCosts, ServiceRegistration,
    World,
};
use ps_spec::{Environment, ResolvedBindings, ServiceSpec};
use std::fmt;

/// The nine evaluation scenarios of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Dynamic deployment, fast connection (New York clients).
    DF,
    /// Dynamic, slow connection, no coherence propagation.
    DS0,
    /// Dynamic, slow, flush every 500 unpropagated messages.
    DS500,
    /// Dynamic, slow, flush every 1000 unpropagated messages.
    DS1000,
    /// Static counterpart of `DF`.
    SF,
    /// Static counterpart of `DS0`.
    SS0,
    /// Static counterpart of `DS500`.
    SS500,
    /// Static counterpart of `DS1000`.
    SS1000,
    /// Static naive deployment: San Diego clients connect directly to the
    /// New York server.
    SS,
}

impl Scenario {
    /// All nine, in the paper's legend order.
    pub const ALL: [Scenario; 9] = [
        Scenario::DF,
        Scenario::DS0,
        Scenario::DS500,
        Scenario::DS1000,
        Scenario::SF,
        Scenario::SS0,
        Scenario::SS500,
        Scenario::SS1000,
        Scenario::SS,
    ];

    /// Whether the framework plans the deployment (vs hand-built).
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            Scenario::DF | Scenario::DS0 | Scenario::DS500 | Scenario::DS1000
        )
    }

    /// Whether clients run in New York (fast) or San Diego (slow).
    pub fn is_fast(&self) -> bool {
        matches!(self, Scenario::DF | Scenario::SF)
    }

    /// The coherence policy the scenario's view server uses (irrelevant
    /// for `DF`/`SF`/`SS`, which deploy no view server).
    pub fn policy(&self) -> CoherencePolicy {
        match self {
            Scenario::DS500 | Scenario::SS500 => CoherencePolicy::CountLimit(500),
            Scenario::DS1000 | Scenario::SS1000 => CoherencePolicy::CountLimit(1000),
            _ => CoherencePolicy::None,
        }
    }

    /// The latency group the paper clusters the scenario into (1 best).
    pub fn paper_group(&self) -> u8 {
        match self {
            Scenario::DF | Scenario::DS0 | Scenario::SF | Scenario::SS0 => 1,
            Scenario::DS1000 | Scenario::SS1000 => 2,
            Scenario::DS500 | Scenario::SS500 => 3,
            Scenario::SS => 4,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Workload parameters for one Figure 7 run.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Number of concurrent client clusters (the paper sweeps 1–5).
    pub clients: usize,
    /// Messages per client (paper: 100; scaled default 2000 — see the
    /// module docs).
    pub msgs_per_client: u32,
    /// Receive operations per client (paper: 10).
    pub receives_per_client: u32,
    /// Body size range, bytes.
    pub body_bytes: (usize, usize),
    /// Sensitivity range of generated messages (inclusive).
    pub sensitivity: (u8, u8),
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            clients: 1,
            msgs_per_client: 2000,
            receives_per_client: 10,
            body_bytes: (1024, 3072),
            sensitivity: (1, 2),
            seed: 42,
        }
    }
}

/// Results of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Which scenario.
    pub scenario: Scenario,
    /// Client count.
    pub clients: usize,
    /// Send-latency summary (ms).
    pub send: Summary,
    /// Receive-latency summary (ms).
    pub receive: Summary,
    /// Send-latency median (ms).
    pub send_p50: f64,
    /// Send-latency 95th percentile (ms).
    pub send_p95: f64,
    /// Virtual time at completion.
    pub completed_at: SimTime,
    /// Total messages the runtime carried.
    pub messages: u64,
    /// One-time connection costs, including the recorded planner
    /// counters ([`PlanStats`](ps_planner::PlanStats)). `None` for the
    /// hand-built static scenarios, which never invoke the planner.
    pub plan_costs: Option<OneTimeCosts>,
}

/// The case study with the mail service registered, its components
/// keyed from `key_seed` and its views kept coherent by `policy`, and
/// the primary `MailServer` installed in New York.
pub(crate) fn case_study_mail(key_seed: u64, policy: CoherencePolicy) -> (CaseStudy, Framework) {
    let cs = casestudy::default_case_study();
    let mut framework = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    register_mail_components(
        &mut framework.server.registry,
        Keyring::new(key_seed),
        policy,
    );
    framework.register_service(ServiceRegistration::new(mail_spec()).attribute("type", "mail"));
    framework
        .install_primary("mail", MAIL_SERVER, cs.mail_server)
        .expect("primary installs");
    (cs, framework)
}

/// Runs one scenario and collects latencies.
pub fn run_scenario(scenario: Scenario, config: &Fig7Config) -> ScenarioResult {
    run_scenario_with_policy(scenario, scenario.policy(), config)
}

/// Runs `scenario` with its views kept coherent by `policy` instead of
/// the scenario's own (the coherence and sensitivity ablations).
pub fn run_scenario_with_policy(
    scenario: Scenario,
    policy: CoherencePolicy,
    config: &Fig7Config,
) -> ScenarioResult {
    let (cs, mut framework) = case_study_mail(config.seed, policy);
    let client_node = if scenario.is_fast() {
        cs.ny_client
    } else {
        cs.sd_client
    };

    // Obtain the client-facing root instance.
    let mut plan_costs = None;
    let root: InstanceId = if scenario.is_dynamic() {
        let request = mail_request(client_node, cs.mail_server, 4, config.clients as f64 * 5.0);
        let connection = framework.connect("mail", &request).expect("plan + deploy");
        plan_costs = Some(connection.costs);
        connection.root
    } else {
        build_static(
            &mut framework.world,
            &framework.server.registry,
            &mail_spec(),
            &cs,
            scenario,
            client_node,
        )
    };

    // Drivers: one per client cluster, colocated with the client node.
    let start = framework.world.now();
    for i in 0..config.clients {
        let user = format!("user-{i}");
        let peer = format!("user-{}", (i + 1) % config.clients.max(1));
        let driver = ClusterDriver::new(ClusterConfig {
            user,
            peers: vec![peer],
            sends: config.msgs_per_client,
            receives: config.receives_per_client,
            body_bytes: config.body_bytes,
            sensitivity: config.sensitivity,
            id_base: (i as u64 + 1) << 40,
            seed: config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
        });
        let id = framework.world.instantiate(
            format!("driver-{i}"),
            client_node,
            ResolvedBindings::new(),
            ps_spec::Behavior::new(),
            Box::new(driver),
            start,
        );
        framework.world.wire(id, vec![root]);
    }

    framework.run();

    let send = framework.world.metric(SEND_METRIC);
    let receive = framework.world.metric(RECEIVE_METRIC);
    let mut p = framework
        .world
        .metric_percentiles(SEND_METRIC)
        .cloned()
        .unwrap_or_default();
    ScenarioResult {
        scenario,
        clients: config.clients,
        send,
        receive,
        send_p50: p.quantile(0.5).unwrap_or(0.0),
        send_p95: p.quantile(0.95).unwrap_or(0.0),
        completed_at: framework.world.now(),
        messages: framework.world.messages_sent(),
        plan_costs,
    }
}

/// Hand-builds the static deployments (the paper's hand-generated
/// baselines). Returns the client-facing root instance.
pub(crate) fn build_static(
    world: &mut World,
    registry: &ComponentRegistry,
    spec: &ServiceSpec,
    cs: &CaseStudy,
    scenario: Scenario,
    client_node: ps_net::NodeId,
) -> InstanceId {
    let translator = mail_translator();
    let primary = world
        .find_instance(MAIL_SERVER, cs.mail_server, &ResolvedBindings::new())
        .expect("primary installed");

    let make =
        |world: &mut World, component: &str, node: ps_net::NodeId, factors: ResolvedBindings| {
            let env: Environment =
                ps_net::PropertyTranslator::node_env(&translator, world.network().node(node));
            let args = FactoryArgs {
                component,
                node,
                factors: &factors,
                env: &env,
            };
            let logic = registry.create(&args).expect("factory registered");
            world.instantiate(
                component,
                node,
                factors,
                spec.behavior_of(component),
                logic,
                world.now(),
            )
        };

    match scenario {
        Scenario::SF => {
            // MailClient in New York -> MailServer.
            let mc = make(world, MAIL_CLIENT, client_node, ResolvedBindings::new());
            world.wire(mc, vec![primary]);
            mc
        }
        Scenario::SS => {
            // Naive: MailClient in San Diego -> MailServer across the slow
            // link (no confidentiality, no cache — what a static deployer
            // unaware of the environment would produce).
            let mc = make(world, MAIL_CLIENT, client_node, ResolvedBindings::new());
            world.wire(mc, vec![primary]);
            mc
        }
        Scenario::SS0 | Scenario::SS500 | Scenario::SS1000 => {
            // MailClient -> ViewMailServer -> Encryptor (San Diego)
            //   -> Decryptor (New York) -> MailServer.
            let factors = ResolvedBindings::new().with("TrustLevel", casestudy::TRUST_SAN_DIEGO);
            let mc = make(world, MAIL_CLIENT, client_node, ResolvedBindings::new());
            let vms = make(world, VIEW_MAIL_SERVER, client_node, factors);
            let enc = make(world, ENCRYPTOR, client_node, ResolvedBindings::new());
            let dec = make(world, DECRYPTOR, cs.mail_server, ResolvedBindings::new());
            world.wire(mc, vec![vms]);
            world.wire(vms, vec![enc]);
            world.wire(enc, vec![dec]);
            world.wire(dec, vec![primary]);
            mc
        }
        _ => unreachable!("dynamic scenarios are planner-built"),
    }
}

/// Runs the full Figure 7 sweep: every scenario × 1..=max_clients.
/// Scenario runs are independent deterministic simulations, so they run
/// on parallel threads; results come back in legend order regardless.
pub fn figure7_sweep(max_clients: usize, base: &Fig7Config) -> Vec<ScenarioResult> {
    let jobs: Vec<(Scenario, usize)> = Scenario::ALL
        .into_iter()
        .flat_map(|s| (1..=max_clients).map(move |c| (s, c)))
        .collect();
    let mut results: Vec<Option<ScenarioResult>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (slot, &(scenario, clients)) in jobs.iter().enumerate() {
            let config = Fig7Config {
                clients,
                ..base.clone()
            };
            // ps-lint: allow(D004): slot-indexed fan-out — each worker fills only
            // its own `results[slot]` and the merge reads slots in order, so the
            // output is independent of thread completion timing
            handles.push((slot, scope.spawn(move || run_scenario(scenario, &config))));
        }
        for (slot, handle) in handles {
            results[slot] = Some(handle.join().expect("scenario thread"));
        }
    });
    results.into_iter().map(Option::unwrap).collect()
}

/// Renders the sweep as an ASCII log-scale chart shaped like Figure 7:
/// one line per scenario, columns = client counts, plus a log-axis plot
/// of the 5-client means.
pub fn render_figure7(results: &[ScenarioResult], max_clients: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mean_of = |s: Scenario, c: usize| -> f64 {
        results
            .iter()
            .find(|r| r.scenario == s && r.clients == c)
            .map(|r| r.send.mean())
            .unwrap_or(f64::NAN)
    };
    // Log-scale scatter, 1 ms .. 1000 ms over 60 columns (the paper's
    // y-axis, drawn horizontally).
    let _ = writeln!(
        out,
        "log scale, {} clients   1ms        10ms       100ms      1000ms",
        max_clients
    );
    for s in Scenario::ALL {
        let v = mean_of(s, max_clients).max(1.0);
        let pos = ((v.log10() / 3.0) * 60.0).round().clamp(0.0, 60.0) as usize;
        let mut line = vec![b' '; 62];
        line[0] = b'|';
        line[61] = b'|';
        line[pos.min(60) + 1] = b'*';
        let _ = writeln!(
            out,
            "{:<8} (g{}) {}",
            s.to_string(),
            s.paper_group(),
            String::from_utf8(line).expect("ascii")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_taxonomy_matches_the_paper() {
        assert!(Scenario::DF.is_dynamic() && Scenario::DF.is_fast());
        assert!(Scenario::DS500.is_dynamic() && !Scenario::DS500.is_fast());
        assert!(!Scenario::SS.is_dynamic() && !Scenario::SS.is_fast());
        assert_eq!(Scenario::ALL.len(), 9);
        assert_eq!(Scenario::DS500.policy(), CoherencePolicy::CountLimit(500));
        assert_eq!(Scenario::SS1000.policy(), CoherencePolicy::CountLimit(1000));
        assert_eq!(Scenario::DF.policy(), CoherencePolicy::None);
        // The four groups partition the nine scenarios.
        let mut counts = [0usize; 4];
        for s in Scenario::ALL {
            counts[(s.paper_group() - 1) as usize] += 1;
        }
        assert_eq!(counts, [4, 2, 2, 1]);
    }

    #[test]
    fn small_scenario_runs_end_to_end() {
        let config = Fig7Config {
            clients: 1,
            msgs_per_client: 20,
            receives_per_client: 2,
            ..Default::default()
        };
        let r = run_scenario(Scenario::DS0, &config);
        assert_eq!(r.send.count(), 20);
        assert_eq!(r.receive.count(), 2);
        assert!(r.send.mean() > 0.0);
    }

    #[test]
    fn chart_places_scenarios_on_the_log_axis() {
        let config = Fig7Config {
            clients: 1,
            msgs_per_client: 20,
            receives_per_client: 0,
            ..Default::default()
        };
        let results: Vec<ScenarioResult> = vec![
            run_scenario(Scenario::DS0, &config),
            run_scenario(Scenario::SS, &config),
        ];
        let chart = render_figure7(&results, 1);
        // Both scenarios appear, and SS's star sits to the right of DS0's.
        let ds0_line = chart.lines().find(|l| l.starts_with("DS0")).unwrap();
        let ss_line = chart.lines().find(|l| l.starts_with("SS ")).unwrap();
        let pos = |l: &str| l.find('*').unwrap();
        assert!(pos(ss_line) > pos(ds0_line));
    }
}
