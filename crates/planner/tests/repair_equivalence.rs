//! Warm-start plan repair must be *exact*: for any damage to the
//! network, `Planner::plan_repair` seeded from the surviving plan has
//! to land on the same objective value as a from-scratch
//! `Planner::plan` on the damaged network. The seeded incumbent and
//! the restricted phase-1 sweep only change how fast the optimum is
//! found (and which of several equal-objective assignments wins ties),
//! never the optimum itself. These tests drive randomized damage
//! sequences over BRITE topologies and assert value equivalence at
//! every step.

use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{LinkId, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::{Planner, RepairContext, ServiceRequest};
use ps_sim::{Rng, SimDuration};
use ps_spec::prelude::*;
use ps_spec::PropertyValue;

/// Client -> (Tunnel -> Untunnel ->) Server, as in `planner_unit.rs`:
/// the tunnel pair lets the planner route around insecure inter-AS
/// links, which gives damage a real chance to change the optimal shape.
fn spec() -> ServiceSpec {
    ServiceSpec::new("repair")
        .property(Property::boolean("Secure"))
        .property(Property::boolean("Hosting"))
        .interface(Interface::new("Api", ["Secure"]))
        .interface(Interface::new("Backend", ["Secure"]))
        .interface(Interface::new("Proxied", ["Secure"]))
        .component(
            Component::new("Client")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(1.0)
                        .message_bytes(1000, 1000),
                ),
        )
        .component(
            Component::new("Server")
                .implements(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .condition(Condition::equals("Hosting", true))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(10.0)
                        .capacity(50.0)
                        .message_bytes(1000, 1000),
                ),
        )
        .component(
            Component::new("Tunnel")
                .implements(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .requires(InterfaceRef::plain("Proxied"))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.5)
                        .message_bytes(1100, 1100),
                ),
        )
        .component(
            Component::new("Untunnel")
                .implements(InterfaceRef::plain("Proxied"))
                .requires(InterfaceRef::with_bindings(
                    "Backend",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.5)
                        .message_bytes(1000, 1000),
                ),
        )
        .rule(ModificationRule::boolean_and("Secure"))
}

fn translator() -> MappingTranslator {
    MappingTranslator::new()
        .link_mapping(Mapping::Copy {
            credential: "Secure".into(),
            property: "Secure".into(),
            default: PropertyValue::Bool(false),
        })
        .node_mapping(Mapping::Copy {
            credential: "Hosting".into(),
            property: "Hosting".into(),
            default: PropertyValue::Bool(false),
        })
        .node_mapping(Mapping::Constant {
            property: "Secure".into(),
            value: PropertyValue::Bool(true),
        })
}

/// BRITE hierarchical topology decorated for the spec above: every
/// node in the server AS can host. The generator already marks
/// intra-AS links `Secure = true` and inter-AS links `Secure = false`,
/// so cross-site traffic needs the tunnel pair.
fn world(seed: u64) -> (Network, NodeId, NodeId) {
    let mut rng = Rng::seed_from_u64(seed);
    let params = HierParams {
        as_count: 3,
        router: FlatParams {
            nodes: 6,
            ..FlatParams::default()
        },
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut rng, &params);
    for id in 0..net.node_count() as u32 {
        let node = net.node_mut(NodeId(id));
        if node.site == "as0" {
            node.credentials = node.credentials.clone().with("Hosting", true);
        }
    }
    let server = net
        .node_ids()
        .find(|&id| net.node(id).site == "as0")
        .unwrap();
    let client = net
        .node_ids()
        .find(|&id| net.node(id).site == "as2")
        .unwrap();
    (net, client, server)
}

fn planner() -> Planner {
    Planner::new(spec())
}

fn request(client: NodeId, server: NodeId) -> ServiceRequest {
    ServiceRequest::new("Api", client)
        .rate(2.0)
        .pin("Server", server)
        .origin(server)
}

/// Random damage step: flap a link's latency, toggle a link, or
/// toggle a node other than the client or the pinned server.
fn damage(
    rng: &mut Rng,
    net: &mut Network,
    client: NodeId,
    server: NodeId,
) -> (Vec<NodeId>, Vec<LinkId>) {
    match rng.next_below(3) {
        0 => {
            let id = LinkId(rng.next_below(net.link_count() as u64) as u32);
            net.link_mut(id).latency = SimDuration::from_micros(100 + rng.next_below(5000));
            (vec![], vec![id])
        }
        1 => {
            let id = LinkId(rng.next_below(net.link_count() as u64) as u32);
            let up = net.link(id).up;
            net.set_link_up(id, !up);
            (vec![], vec![id])
        }
        _ => {
            let id = NodeId(rng.next_below(net.node_count() as u64) as u32);
            if id == client || id == server {
                return (vec![], vec![]);
            }
            let up = net.node(id).up;
            net.set_node_up(id, !up);
            (vec![id], vec![])
        }
    }
}

#[test]
fn repair_matches_from_scratch_objective_across_random_damage() {
    let planner = planner();
    let translator = translator();
    let mut seeded_runs = 0u32;
    let mut reuse_seen = false;
    for seed in 0..6u64 {
        let (mut net, client, server) = world(100 + seed);
        let request = request(client, server);
        let mut old = match planner.plan(&net, &translator, &request) {
            Ok(plan) => plan,
            Err(_) => continue, // topology draw with no feasible mapping
        };
        let mut rng = Rng::seed_from_u64(9000 + seed);
        for _step in 0..5 {
            let (dirty_nodes, dirty_links) = damage(&mut rng, &mut net, client, server);
            if dirty_nodes.is_empty() && dirty_links.is_empty() {
                continue;
            }
            let ctx = RepairContext {
                old_plan: &old,
                dirty_nodes,
                dirty_links,
                prior_routes: None,
            };
            let repaired = planner.plan_repair(&net, &translator, &request, &ctx);
            let fresh = planner.plan(&net, &translator, &request);
            match (repaired, fresh) {
                (Ok(repaired), Ok(fresh)) => {
                    assert!(
                        (repaired.objective_value - fresh.objective_value).abs() < 1e-9,
                        "seed {seed}: repair objective {} != fresh objective {}",
                        repaired.objective_value,
                        fresh.objective_value
                    );
                    let stats = repaired.repair.expect("repaired plan carries stats");
                    if stats.seeded {
                        seeded_runs += 1;
                    }
                    if stats.chains_reused > 0 {
                        reuse_seen = true;
                    }
                    old = repaired;
                }
                (Err(_), Err(_)) => break, // both agree: nothing feasible
                (repaired, fresh) => panic!(
                    "seed {seed}: repair and fresh disagree on feasibility: \
                     repair={:?} fresh={:?}",
                    repaired.map(|p| p.objective_value),
                    fresh.map(|p| p.objective_value)
                ),
            }
        }
    }
    assert!(
        seeded_runs > 0,
        "no damage sequence produced a seeded warm-start repair"
    );
    assert!(
        reuse_seen,
        "no damage sequence left an untouched chain to reuse"
    );
}

/// Damage that leaves the old plan fully intact must seed the search
/// with the surviving mapping and still return the optimum.
#[test]
fn untouched_plan_seeds_the_repair() {
    let planner = planner();
    let translator = translator();
    let (mut net, client, server) = world(42);
    let request = request(client, server);
    let old = planner
        .plan(&net, &translator, &request)
        .expect("seed topology must be plannable");
    let used: std::collections::BTreeSet<NodeId> = old.placements.iter().map(|p| p.node).collect();
    let used_links: std::collections::BTreeSet<LinkId> = old
        .edges
        .iter()
        .flat_map(|e| e.route.links.iter().copied())
        .collect();
    // A node that carries no placement and no plan route: taking it
    // down leaves the surviving plan fully feasible.
    let victim = net
        .node_ids()
        .find(|id| {
            !used.contains(id)
                && *id != client
                && !net
                    .neighbours(*id)
                    .iter()
                    .any(|(_, link)| used_links.contains(link))
        })
        .expect("some node is unused by the plan");
    net.set_node_up(victim, false);
    let ctx = RepairContext {
        old_plan: &old,
        dirty_nodes: vec![victim],
        dirty_links: vec![],
        prior_routes: None,
    };
    let repaired = planner
        .plan_repair(&net, &translator, &request, &ctx)
        .expect("repair succeeds");
    let fresh = planner
        .plan(&net, &translator, &request)
        .expect("fresh plan succeeds");
    assert!((repaired.objective_value - fresh.objective_value).abs() < 1e-9);
    let stats = repaired.repair.unwrap();
    assert!(stats.seeded, "untouched plan must seed the search");
}

/// A repair that keeps one of two same-component placements fixed: the
/// old plan chains a tier-2 `View` onto a tier-3 one, the damage touches
/// only the upstream view's edge to the server, and the downstream view
/// stays pinned on its host — the *second* entry of the view's candidate
/// set, so its instance-identity entry must be read through the fixed
/// slice's offset. Read from the set's start instead, the pinned view
/// would take the upstream host's factor class, clash with it, and the
/// repair would come back unseeded.
#[test]
fn a_repair_pins_a_same_component_sibling_at_its_own_candidate_slot() {
    let tiered = |level: ValueExpr| {
        Bindings::new()
            .bind_lit("Secure", true)
            .bind("Level", level)
    };
    let traffic = || Behavior::new().message_bytes(1000, 1000);
    let spec = ServiceSpec::new("tiers")
        .property(Property::boolean("Secure"))
        .property(Property::interval("Level", 1, 9))
        .property(Property::interval("Tier", 0, 3))
        .interface(Interface::new("Api", ["Secure", "Level"]))
        .component(
            Component::new("Client")
                .implements(InterfaceRef::plain("Front"))
                .requires(InterfaceRef::with_bindings(
                    "Api",
                    tiered(ValueExpr::lit(1i64)),
                ))
                .behavior(traffic().cpu_per_request_ms(0.1)),
        )
        .interface(Interface::new("Front", Vec::<String>::new()))
        .component(
            Component::new("Server")
                .implements(InterfaceRef::with_bindings(
                    "Api",
                    tiered(ValueExpr::lit(9i64)),
                ))
                .behavior(traffic().cpu_per_request_ms(1.0)),
        )
        .component(
            Component::view("View", "Server", ViewKind::Data)
                .factors(Bindings::new().bind_env("Level", "Node.Tier"))
                .implements(InterfaceRef::with_bindings(
                    "Api",
                    tiered(ValueExpr::env("Node.Tier")),
                ))
                .requires(InterfaceRef::with_bindings(
                    "Api",
                    tiered(ValueExpr::env("Node.Tier")),
                ))
                .condition(Condition::in_range("Node.Tier", 1, 3))
                .behavior(traffic().cpu_per_request_ms(0.1).rrf(0.2)),
        )
        .rule(ModificationRule::boolean_and("Secure"));
    let translator = translator().node_mapping(Mapping::Copy {
        credential: "Tier".into(),
        property: "Tier".into(),
        default: PropertyValue::Int(0),
    });

    // server (n0) —40 ms— tier 3 (n1) —40 ms— tier 2 (n2) —1 ms— client (n3)
    let mut net = Network::new();
    let nodes: Vec<NodeId> = [0i64, 3, 2, 0]
        .iter()
        .enumerate()
        .map(|(i, &tier)| {
            let credentials = ps_net::Credentials::new().with("Tier", tier);
            net.add_node(format!("n{i}"), format!("site{i}"), 1.0, credentials)
        })
        .collect();
    let links: Vec<LinkId> = [40, 40, 1]
        .iter()
        .zip(nodes.windows(2))
        .map(|(&ms, pair)| {
            let secure = ps_net::Credentials::new().with("Secure", true);
            net.add_link(pair[0], pair[1], SimDuration::from_millis(ms), 1e8, secure)
        })
        .collect();

    let planner = Planner::new(spec);
    let request = ServiceRequest::new("Front", nodes[3])
        .pin("Server", nodes[0])
        .origin(nodes[0]);
    let old = planner
        .plan(&net, &translator, &request)
        .expect("the line is plannable");
    let hosts = |plan: &ps_planner::Plan| -> Vec<(String, NodeId)> {
        plan.placements
            .iter()
            .map(|p| (p.component.clone(), p.node))
            .collect()
    };
    let chained = [("Client", 3), ("View", 2), ("View", 1), ("Server", 0)]
        .map(|(component, at)| (component.to_string(), nodes[at]));
    assert_eq!(
        hosts(&old),
        chained,
        "a tier-2 view chained onto a tier-3 one"
    );

    net.link_mut(links[0]).latency = SimDuration::from_millis(60);
    let ctx = RepairContext::new(&old, vec![], vec![links[0]]);
    let repaired = planner
        .plan_repair(&net, &translator, &request, &ctx)
        .expect("repair succeeds");
    let fresh = planner
        .plan(&net, &translator, &request)
        .expect("fresh plan succeeds");
    assert_eq!(repaired.objective_value, fresh.objective_value);
    assert_eq!(repaired.placements, fresh.placements);
    let stats = repaired.repair.expect("repaired plan carries stats");
    assert_eq!(
        (stats.seeded, stats.chains_reused, stats.chains_resolved),
        (true, 2, 2),
        "client and downstream view stay fixed, upstream view and server re-solve"
    );
}
