//! The framework on generated topologies: the mail service deploys and
//! runs on BRITE-style networks it has never seen, not just the
//! hand-built Figure 5 case study.

use partitionable_services::core::Framework;
use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::workload::{ClusterConfig, ClusterDriver};
use partitionable_services::mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use partitionable_services::net::brite::{hierarchical, FlatParams, HierParams};
use partitionable_services::net::{Credentials, Network, NodeId};
use partitionable_services::planner::{
    HierConfig, HierMemo, Planner, PlannerConfig, ServiceRequest,
};
use partitionable_services::sim::{Rng, SimDuration};
use partitionable_services::smock::{CoherencePolicy, ServiceRegistration};
use partitionable_services::spec::Behavior;

/// Decorates a generated network with mail credentials: AS 0 is the
/// trusted company HQ, odd ASes are branches, even (non-zero) ASes are
/// partners.
fn decorate(net: &mut Network) {
    for id in net.node_ids().collect::<Vec<_>>() {
        let site = net.node(id).site.clone();
        let asn: usize = site.trim_start_matches("as").parse().unwrap_or(0);
        let (trust, domain) = if asn == 0 {
            (5i64, "company")
        } else if asn % 2 == 1 {
            (3, "company")
        } else {
            (2, "partner")
        };
        net.node_mut(id).credentials = Credentials::new()
            .with("TrustRating", trust)
            .with("Domain", domain);
    }
}

fn generated(seed: u64, as_count: usize) -> Network {
    let mut rng = Rng::seed_from_u64(seed);
    let params = HierParams {
        as_count,
        router: FlatParams {
            nodes: 4,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    decorate(&mut net);
    net
}

#[test]
fn mail_deploys_and_runs_on_generated_topologies() {
    for seed in [3u64, 17] {
        let net = generated(seed, 3);
        let hq: NodeId = net
            .node_ids()
            .find(|&n| net.trust_rating(n) == Some(5))
            .expect("an HQ node");

        let mut fw = Framework::new(net.clone(), hq, Box::new(mail_translator()));
        register_mail_components(
            &mut fw.server.registry,
            Keyring::new(seed),
            CoherencePolicy::CountLimit(20),
        );
        fw.register_service(ServiceRegistration::new(mail_spec()));
        fw.install_primary("mail", MAIL_SERVER, hq).unwrap();

        // One client per non-HQ AS, planned incrementally.
        let mut drivers = Vec::new();
        for asn in 1..3 {
            let client = net
                .node_ids()
                .find(|&n| net.node(n).site == format!("as{asn}"))
                .expect("as has nodes");
            let trust = if asn % 2 == 1 { 4 } else { 1 };
            let request = ServiceRequest::new(CLIENT_INTERFACE, client)
                .rate(5.0)
                .pin(MAIL_SERVER, hq)
                .origin(hq)
                .require("TrustLevel", trust);
            let conn = fw
                .connect("mail", &request)
                .unwrap_or_else(|e| panic!("seed {seed} as{asn}: {e}"));

            // Validity: every placement respects the spec's conditions.
            for p in &conn.plan.placements {
                let node_trust = fw.world.network().trust_rating(p.node).unwrap();
                match p.component.as_str() {
                    VIEW_MAIL_SERVER => assert!((1..=3).contains(&node_trust)),
                    MAIL_SERVER => assert!(node_trust >= 4),
                    DECRYPTOR => assert_eq!(
                        fw.world
                            .network()
                            .node(p.node)
                            .credentials
                            .get("Domain")
                            .unwrap()
                            .to_string(),
                        "company"
                    ),
                    _ => {}
                }
            }

            let driver = ClusterDriver::new(ClusterConfig {
                sends: 30,
                receives: 3,
                ..ClusterConfig::paper(
                    format!("user-as{asn}"),
                    "user-as1".to_owned(),
                    (asn as u64) << 40,
                )
            });
            let id = fw.world.instantiate(
                format!("driver-as{asn}"),
                client,
                Default::default(),
                Behavior::new(),
                Box::new(driver),
                conn.ready_at,
            );
            fw.world.wire(id, vec![conn.root]);
            drivers.push(id);
        }

        fw.run();
        for id in drivers {
            let d = fw
                .world
                .logic_mut(id)
                .as_any()
                .unwrap()
                .downcast_ref::<ClusterDriver>()
                .unwrap();
            assert!(d.is_done(), "seed {seed}: workload completed");
            assert_eq!(d.denied, 0, "seed {seed}: no denials");
        }
    }
}

#[test]
fn planning_effort_stays_bounded_on_larger_networks() {
    let net = generated(7, 4); // 16 nodes
    let hq = net
        .node_ids()
        .find(|&n| net.trust_rating(n) == Some(5))
        .unwrap();
    let client = net.node_ids().find(|&n| net.node(n).site == "as3").unwrap();
    let planner =
        partitionable_services::planner::Planner::with_config(mail_spec(), Default::default());
    let request = ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(2.0)
        .pin(MAIL_SERVER, hq)
        .origin(hq)
        .require("TrustLevel", 4i64);
    let start = partitionable_services::trace::WallTimer::start();
    let plan = planner
        .plan(&net, &mail_translator(), &request)
        .expect("feasible");
    let elapsed_ms = start.elapsed_ms();
    assert!(
        elapsed_ms < 120_000.0,
        "planning took {elapsed_ms:.0} ms — the branch-and-bound pruning regressed"
    );
    assert!(plan.stats.mappings_evaluated > 0);
}

/// A leaf host hung off `uplink` by a secure 100 µs LAN hop.
fn leaf(net: &mut Network, name: &str, uplink: NodeId, trust: i64, domain: &str) -> NodeId {
    let site = net.node(uplink).site.clone();
    let credentials = Credentials::new()
        .with("TrustRating", trust)
        .with("Domain", domain);
    let host = net.add_node(name, site, 1.0, credentials);
    net.add_link(
        uplink,
        host,
        SimDuration::from_micros(100),
        1e9,
        Credentials::new().with("Secure", true),
    );
    host
}

/// The machine-independent gate on the planner's plan-scoped memo: a
/// cold hierarchical plan of the mail service on a seeded 5-AS transit
/// fabric (partner-grade routers, company datacentre hosts in `as0` and
/// `as1`, a partner-grade client leaf in `as4` — the repo benchmark's
/// fabric at a fifth of its size) runs a pinned number of property-flow
/// computations. Every verdict is computed once per planning call: 53
/// computations answer the candidates that reach a flow check across
/// the plan's 38 linkage graphs (269 of ~2 400 before the chain bound
/// cut most of them first). A memo thrown away per graph (the design
/// this one replaced) needs 77 (then 853), and one keyed on more than
/// the flow reads needs more still — the ceiling sits between.
#[test]
fn cold_hierarchical_plan_stays_under_the_flow_eval_ceiling() {
    let mut rng = Rng::seed_from_u64(42).derive("flow-eval-gate");
    let params = HierParams {
        as_count: 5,
        router: FlatParams {
            nodes: 20,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    let routers: Vec<NodeId> = net.node_ids().collect();
    for &id in &routers {
        net.node_mut(id).credentials = Credentials::new()
            .with("TrustRating", 4i64)
            .with("Domain", "partner");
    }
    let uplinks = |net: &Network, site: &str| -> Vec<NodeId> {
        routers
            .iter()
            .copied()
            .filter(|&n| net.node(n).site == site)
            .collect()
    };
    let hq: Vec<NodeId> = uplinks(&net, "as0")
        .into_iter()
        .take(4)
        .enumerate()
        .map(|(i, router)| leaf(&mut net, &format!("hq-{i}"), router, 5, "company"))
        .collect();
    for (i, router) in uplinks(&net, "as1").into_iter().take(4).enumerate() {
        leaf(&mut net, &format!("branch-{i}"), router, 3, "company");
    }
    let attach = *uplinks(&net, "as4").last().expect("as4 has routers");
    let client = leaf(&mut net, "client", attach, 4, "partner");

    let planner = Planner::with_config(
        mail_spec(),
        PlannerConfig {
            hier: Some(HierConfig::default()),
            ..PlannerConfig::default()
        },
    );
    let request = ServiceRequest::new(CLIENT_INTERFACE, client)
        .rate(2.0)
        .pin(MAIL_SERVER, hq[0])
        .origin(hq[0])
        .free_root()
        .require("TrustLevel", 4i64);
    let plan = planner
        .plan_hierarchical(&net, &mail_translator(), &request, &HierMemo::new())
        .expect("feasible");
    assert!(
        plan.stats.hier_segments > 0,
        "the plan must compose regions"
    );
    assert!(plan.stats.graphs_enumerated > 1 && plan.stats.flow_evals > 0);
    assert!(
        plan.stats.flow_evals <= 64,
        "{} property-flow computations for one cold plan — the plan-scoped memo regressed",
        plan.stats.flow_evals
    );
}
