//! Generated inputs shared by the workloads and the probes: the
//! 513-router transit fabric with its datacentre hosts and client
//! leaves, the mail framework assembled on a network, and the digest of
//! a network.

use crate::harness::Digest;
use ps_core::Framework;
use ps_mail::spec::names::{CLIENT_INTERFACE, MAIL_SERVER};
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{Credentials, Network, NodeId};
use ps_planner::{Algorithm, HierConfig, PlannerConfig, ServiceRequest};
use ps_sim::{Rng, SimDuration};
use ps_smock::{CoherencePolicy, ServiceRegistration};

/// Seed of everything structural: the fabric's topology, where hosts and
/// leaves attach, the crash and flap schedule. It is a constant of the
/// benchmark, not the run's `--seed`, because wall metrics differ by 2x
/// and more from one generated topology or fault schedule to the next;
/// the run's seed drives what clients do on that fixed world — arrival
/// order and times, which leaf re-connects, message bodies, loss draws.
pub const SCENARIO_SEED: u64 = 42;

/// Routers in the fabric (5 autonomous systems of 102, BRITE top-down).
pub const FABRIC_ROUTERS: usize = 513;
const AS_COUNT: usize = 5;
/// Hosting-capable leaf hosts per datacentre site.
const HOSTS_PER_SITE: usize = 6;

/// The fabric and the nodes the workloads address.
pub struct Fabric {
    pub net: Network,
    /// Datacentre hosts of `as0` (HQ, TrustRating 5); `hq[0]` runs the
    /// primary mail server, the lookup service and the generic server.
    pub hq: Vec<NodeId>,
    /// Datacentre hosts of `as1` (branch office, TrustRating 3).
    pub branch: Vec<NodeId>,
    /// Partner-grade client leaves, `leaves_per_point` consecutive ones
    /// per attach point.
    pub leaves: Vec<NodeId>,
    /// Node count before hosts and leaves were attached: ids below it
    /// are transit routers, links between two such ids are fabric links.
    pub routers: u32,
}

impl Fabric {
    pub fn server(&self) -> NodeId {
        self.hq[0]
    }
}

fn leaf_host(net: &mut Network, name: String, uplink: NodeId, credentials: Credentials) -> NodeId {
    let site = net.node(uplink).site.clone();
    let host = net.add_node(name, site, 1.0, credentials);
    net.add_link(
        uplink,
        host,
        SimDuration::from_nanos(100_000), // 100 µs LAN hop
        1e9,
        Credentials::new().with("Secure", true),
    );
    host
}

/// Builds the fabric from [`SCENARIO_SEED`]: every router is partner-domain transit
/// (TrustRating 4, so only the condition-free Encryptor can roam it),
/// hosting happens on 6+6 company-domain leaf hosts hung off the first
/// routers of `as0` and `as1`, and partner-grade client workstations hang
/// off `attach_points` routers drawn from the whole fabric without
/// replacement, `leaves_per_point` on each. Clients are partner-grade so
/// no mail component installs on them and every chain spreads into the
/// datacentres.
pub fn build_fabric(attach_points: usize, leaves_per_point: usize) -> Fabric {
    let mut rng = Rng::seed_from_u64(SCENARIO_SEED).derive("fabric");
    let params = HierParams {
        as_count: AS_COUNT,
        router: FlatParams {
            nodes: FABRIC_ROUTERS / AS_COUNT,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    let router_ids: Vec<NodeId> = net.node_ids().collect();
    for &id in &router_ids {
        let node = net.node_mut(id);
        node.credentials = node
            .credentials
            .clone()
            .with("TrustRating", 4i64)
            .with("Domain", "partner");
    }
    let attach = |net: &mut Network, site: &str, trust: i64| -> Vec<NodeId> {
        let uplinks: Vec<NodeId> = router_ids
            .iter()
            .copied()
            .filter(|&n| net.node(n).site == site)
            .take(HOSTS_PER_SITE)
            .collect();
        uplinks
            .iter()
            .enumerate()
            .map(|(i, &router)| {
                let credentials = Credentials::new()
                    .with("TrustRating", trust)
                    .with("Domain", "company");
                leaf_host(net, format!("{site}-host-{i}"), router, credentials)
            })
            .collect()
    };
    let hq = attach(&mut net, "as0", 5);
    let branch = attach(&mut net, "as1", 3);
    let mut uplinks = router_ids.clone();
    rng.shuffle(&mut uplinks);
    let mut leaves = Vec::with_capacity(attach_points * leaves_per_point);
    for (i, &router) in uplinks.iter().take(attach_points).enumerate() {
        for k in 0..leaves_per_point {
            let credentials = Credentials::new()
                .with("TrustRating", 4i64)
                .with("Domain", "partner");
            leaves.push(leaf_host(
                &mut net,
                format!("leaf-{i}-{k}"),
                router,
                credentials,
            ));
        }
    }
    Fabric {
        net,
        hq,
        branch,
        leaves,
        routers: router_ids.len() as u32,
    }
}

/// The only planner configuration that scales on the fabric: bounded
/// exhaustive search under gateway composition, one thread.
pub fn fabric_planner() -> PlannerConfig {
    PlannerConfig {
        algorithm: Algorithm::Exhaustive,
        threads: 1,
        hier: Some(HierConfig::default()),
        ..PlannerConfig::default()
    }
}

/// `PlannerConfig::default()` pinned to one thread (the case study).
pub fn default_planner() -> PlannerConfig {
    PlannerConfig {
        threads: 1,
        ..PlannerConfig::default()
    }
}

/// Assembles the mail service on `net`: framework, component factories,
/// registration, primary. This is the set-up every workload times.
pub fn mail_framework(
    net: Network,
    server: NodeId,
    planner: PlannerConfig,
    seed: u64,
) -> Framework {
    let mut fw = Framework::new(net, server, Box::new(mail_translator()));
    fw.planner_config(planner);
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(seed),
        CoherencePolicy::CountLimit(500),
    );
    fw.register_service(
        ServiceRegistration::new(mail_spec())
            .attribute("type", "mail")
            .proxy_code_size(32 * 1024)
            .home_node(server),
    );
    fw.install_primary("mail", MAIL_SERVER, server)
        .expect("the mail service was registered on the line above");
    fw
}

/// A fabric client's request: trusted chain onto the pinned server, root
/// free to float into the branch datacentre.
pub fn fabric_request(server: NodeId, client: NodeId) -> ServiceRequest {
    ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(2.0)
        .pin(MAIL_SERVER, server)
        .origin(server)
        .free_root()
        .require("TrustLevel", 4i64)
}

/// Folds the node and link lists into `digest`, so a change to the
/// generator reads as changed input.
pub fn digest_network(digest: &mut Digest, net: &Network) {
    for node in net.nodes() {
        digest
            .str(&node.name)
            .str(&node.site)
            .f64(node.cpu_speed)
            .str(&format!("{:?}", node.credentials));
    }
    for link in net.links() {
        digest
            .u64(u64::from(link.a.0))
            .u64(u64::from(link.b.0))
            .u64(link.latency.as_nanos())
            .f64(link.bandwidth_bps)
            .str(&format!("{:?}", link.credentials));
    }
}
