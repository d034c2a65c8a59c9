//! Focused tests of the planner's mapping machinery: candidate
//! filtering, the three validity conditions, accumulated load,
//! objectives, and instance-identity rules.

use ps_net::{Credentials, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::{Objective, PlanError, Planner, PlannerConfig, ServiceRequest};
use ps_sim::SimDuration;
use ps_spec::prelude::*;
use ps_spec::PropertyValue;

#[path = "reference/mod.rs"]
mod reference;

/// Client -> (Proxy ->) Server over two sites with an insecure WAN.
fn spec() -> ServiceSpec {
    ServiceSpec::new("unit")
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
            // A securing relay (encryptor-like): re-asserts Secure.
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

/// Two sites; `secure_wan` controls the inter-site link's credential.
fn network(secure_wan: bool) -> (Network, NodeId, NodeId) {
    let mut net = Network::new();
    let client_node = net.add_node("c0", "edge", 1.0, Credentials::new());
    let _extra = net.add_node("c1", "edge", 1.0, Credentials::new());
    let server_node = net.add_node("s0", "dc", 1.0, Credentials::new().with("Hosting", true));
    net.add_link(
        client_node,
        NodeId(1),
        SimDuration::from_micros(100),
        1e8,
        Credentials::new().with("Secure", true),
    );
    net.add_link(
        NodeId(1),
        server_node,
        SimDuration::from_millis(50),
        1e7,
        Credentials::new().with("Secure", secure_wan),
    );
    (net, client_node, server_node)
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

fn planner(config: PlannerConfig) -> Planner {
    Planner::with_config(spec(), config)
}

fn request(client: NodeId, server: NodeId) -> ServiceRequest {
    ServiceRequest::new("Api", client)
        .rate(1.0)
        .pin("Server", server)
        .origin(server)
}

#[test]
fn secure_wan_gets_a_direct_plan() {
    let (net, c, s) = network(true);
    let plan = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s))
        .unwrap();
    assert_eq!(plan.graph.to_string(), "Client -> Server");
    assert_eq!(plan.placements[0].node, c, "root colocated with client");
    assert_eq!(plan.placements[1].node, s, "server pinned");
}

#[test]
fn insecure_wan_forces_the_tunnel_pair() {
    let (net, c, s) = network(false);
    let plan = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s))
        .unwrap();
    assert_eq!(
        plan.graph.to_string(),
        "Client -> Tunnel -> Untunnel -> Server"
    );
    // The tunnel must sit on the client's side of the insecure link and
    // the untunnel on the server's side.
    let tunnel = plan.placement_of("Tunnel").unwrap();
    let untunnel = plan.placement_of("Untunnel").unwrap();
    assert_eq!(net.node(tunnel.node).site, "edge");
    assert_eq!(net.node(untunnel.node).site, "dc");
}

#[test]
fn capacity_condition_rejects_excess_rate() {
    // Server capacity is 50 req/s.
    let (net, c, s) = network(true);
    let p = planner(PlannerConfig::default());
    assert!(p
        .plan(&net, &translator(), &request(c, s).rate(49.0))
        .is_ok());
    let err = p
        .plan(&net, &translator(), &request(c, s).rate(51.0))
        .unwrap_err();
    assert!(matches!(err, PlanError::NoFeasibleMapping { .. }));
}

#[test]
fn cpu_load_limits_the_rate() {
    // Server costs 10 ms/request on a speed-1 node: 100 req/s saturates
    // the CPU before the declared capacity matters... capacity (50) is
    // lower here, so push the rate between CPU and capacity bounds via a
    // faster node. Instead check the sustainable estimate directly.
    let (net, c, s) = network(true);
    let plan = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s).rate(10.0))
        .unwrap();
    assert!(plan.sustainable_rate <= 50.0 + 1e-9);
    assert!(plan.sustainable_rate >= 10.0);
}

#[test]
fn max_capacity_objective_reports_negated_sustainable_rate() {
    let (net, c, s) = network(true);
    let plan = planner(PlannerConfig {
        objective: Objective::MaxCapacity,
        ..Default::default()
    })
    .plan(&net, &translator(), &request(c, s))
    .unwrap();
    assert!((plan.objective_value + plan.sustainable_rate).abs() < 1e-9);
    assert!(
        (plan.sustainable_rate - 50.0).abs() < 1e-9,
        "capacity-bound"
    );
}

#[test]
fn min_cost_prefers_fewer_new_components() {
    // Even on the insecure WAN, MinCost should still find the tunnel
    // chain (it is the only feasible graph) — but on the secure WAN it
    // must pick the bare two-component plan over any relayed variant.
    let (net, c, s) = network(true);
    let plan = planner(PlannerConfig {
        objective: Objective::MinCost,
        ..Default::default()
    })
    .plan(&net, &translator(), &request(c, s))
    .unwrap();
    assert_eq!(plan.graph.len(), 2);
}

#[test]
fn required_properties_filter_roots() {
    let (net, c, s) = network(true);
    // The Client's effective provided map includes Secure=T flowing up
    // from the server, so requiring it succeeds...
    let ok = planner(PlannerConfig::default()).plan(
        &net,
        &translator(),
        &request(c, s).require("Secure", true),
    );
    assert!(ok.is_ok());
    // ...while requiring a property nothing provides fails.
    let err = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s).require("Hosting", true))
        .unwrap_err();
    assert!(matches!(err, PlanError::NoFeasibleMapping { .. }));
}

#[test]
fn unknown_interface_and_pin_errors() {
    let (net, c, s) = network(true);
    let err = planner(PlannerConfig::default())
        .plan(&net, &translator(), &ServiceRequest::new("Nope", c))
        .unwrap_err();
    assert!(matches!(err, PlanError::NoImplementers(_)));

    let err = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s).pin("Ghost", s))
        .unwrap_err();
    assert!(matches!(err, PlanError::UnknownPinned(_)));
}

#[test]
fn free_root_charges_the_client_edge() {
    // With a free root the client edge is charged like any linkage, so
    // moving the Client next to the Server trades the client edge for
    // the Client->Server edge one-for-one: expected latency must not
    // improve, only the deployment-cost tie-break may move the node.
    let (net, c, s) = network(true);
    let colocated = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s))
        .unwrap();
    let free = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s).free_root())
        .unwrap();
    assert!(
        (free.expected_latency_ms - colocated.expected_latency_ms).abs() < 1e-6,
        "free {} vs colocated {}",
        free.expected_latency_ms,
        colocated.expected_latency_ms
    );
    // The tie-break ships less code: the free root lands at the origin.
    assert_eq!(free.placements[0].node, s);
    assert!(free.deployment_cost_ms <= colocated.deployment_cost_ms);
}

/// Client -> Middle -> Server where the first two stages each cost
/// 6 ms/request: at 100 req/s that is 0.6 of a speed-1 CPU apiece.
fn heavy_spec() -> ServiceSpec {
    ServiceSpec::new("heavy")
        .interface(Interface::new("Api", Vec::<String>::new()))
        .interface(Interface::new("Mid", Vec::<String>::new()))
        .interface(Interface::new("Api2", Vec::<String>::new()))
        .component(
            Component::new("Client")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::plain("Mid"))
                .behavior(Behavior::new().cpu_per_request_ms(6.0)),
        )
        .component(
            Component::new("Middle")
                .implements(InterfaceRef::plain("Mid"))
                .requires(InterfaceRef::plain("Api2"))
                .behavior(Behavior::new().cpu_per_request_ms(6.0)),
        )
        .component(
            Component::new("Server")
                .implements(InterfaceRef::plain("Api2"))
                .behavior(Behavior::new().cpu_per_request_ms(0.1)),
        )
}

/// Validity condition 3 under the default configuration: loads
/// accumulate across every component mapped to a node. (The parent's
/// default `Auto` handed this chain to a per-component DP and planned
/// `Ok` with 1.2 CPU load on a 1.0-speed node.)
#[test]
fn accumulated_load_model_sees_shared_nodes() {
    // One node only: everything lands there. Each heavy stage alone
    // fits (0.6), together they do not (1.2 > 1).
    let mut net = Network::new();
    let only = net.add_node("n", "s", 1.0, Credentials::new());
    let request = ServiceRequest::new("Api", only)
        .rate(100.0)
        .pin("Server", only);
    let planned = Planner::with_config(heavy_spec(), PlannerConfig::default()).plan(
        &net,
        &MappingTranslator::new(),
        &request,
    );
    assert!(
        matches!(planned, Err(PlanError::NoFeasibleMapping { .. })),
        "together they exceed the node CPU: {planned:?}"
    );
}

/// The same chain on two nodes: stacking all three stages on the
/// client's node is over capacity, so the optimum splits them — the
/// free-floating `Middle` moves next door and pays the hop.
#[test]
fn over_capacity_colocation_loses_to_the_split_mapping() {
    let mut net = Network::new();
    let near = net.add_node("near", "s", 1.0, Credentials::new());
    let far = net.add_node("far", "s", 1.0, Credentials::new());
    net.add_link(
        near,
        far,
        SimDuration::from_millis(5),
        1e9,
        Credentials::new(),
    );
    let request = ServiceRequest::new("Api", near)
        .rate(100.0)
        .pin("Server", near);
    let plan = Planner::with_config(heavy_spec(), PlannerConfig::default())
        .plan(&net, &MappingTranslator::new(), &request)
        .expect("the split mapping is feasible");
    let hosts: Vec<NodeId> = plan.placements.iter().map(|p| p.node).collect();
    assert_eq!(hosts, [near, far, near], "Client, Middle, Server");
    // Without the capacity condition everything would sit on `near`:
    // the split is the optimum only because colocation is invalid.
    assert!(plan.expected_latency_ms > 12.1, "the Middle hop is paid");
}

#[test]
fn same_component_never_maps_to_one_node_twice() {
    // A chain that repeats Tunnel/Untunnel; on this two-site network any
    // valid mapping would need both tunnels on the same (component,
    // node) pair or a second new same-config instance — both banned —
    // so only the single-pair chain survives.
    let (net, c, s) = network(false);
    let plan = planner(PlannerConfig {
        ..Default::default()
    })
    .plan(&net, &translator(), &request(c, s))
    .unwrap();
    let tunnels = plan
        .placements
        .iter()
        .filter(|p| p.component == "Tunnel")
        .count();
    assert_eq!(tunnels, 1);
}

#[test]
fn stats_track_search_effort() {
    let (net, c, s) = network(false);
    let plan = planner(PlannerConfig {
        ..Default::default()
    })
    .plan(&net, &translator(), &request(c, s))
    .unwrap();
    assert!(plan.stats.graphs_enumerated > 1);
    assert!(plan.stats.mappings_evaluated >= 1);
    assert!(plan.stats.prunes > 0);
}

#[test]
fn derived_properties_feed_conditions_and_bindings() {
    // EffectiveTrust = min(TrustLevel, 3) caps every node's trust; a
    // component conditioned on EffectiveTrust >= 3 may then run on both
    // trust-3 and trust-5 nodes, but one conditioned on >= 4 nowhere.
    let base = |cond_level: i64| {
        ServiceSpec::new("derived")
            .property(Property::interval("TrustLevel", 1, 5))
            .property(Property::interval("EffectiveTrust", 1, 5))
            .interface(Interface::new("Api", Vec::<String>::new()))
            .component(
                Component::new("Svc")
                    .implements(InterfaceRef::plain("Api"))
                    .condition(Condition::at_least("EffectiveTrust", cond_level)),
            )
            .derive(
                "EffectiveTrust",
                PropExpr::parse("min(TrustLevel, 3)").unwrap(),
            )
    };
    let mut net = Network::new();
    let strong = net.add_node(
        "strong",
        "s",
        1.0,
        Credentials::new().with("TrustRating", 5i64),
    );
    let _weak = net.add_node(
        "weak",
        "s",
        1.0,
        Credentials::new().with("TrustRating", 2i64),
    );
    let t = MappingTranslator::new().node_mapping(Mapping::Copy {
        credential: "TrustRating".into(),
        property: "TrustLevel".into(),
        default: PropertyValue::Int(1),
    });
    let request = ServiceRequest::new("Api", strong);

    let ok = Planner::new(base(3)).plan(&net, &t, &request);
    assert!(ok.is_ok(), "trust 5 capped to 3 still satisfies >= 3");
    let err = Planner::new(base(4)).plan(&net, &t, &request).unwrap_err();
    assert!(
        matches!(err, PlanError::NoFeasibleMapping { .. }),
        "the cap makes >= 4 unsatisfiable everywhere"
    );
    // The spec itself validates (no cycles).
    base(3).validate().unwrap();
}

#[test]
fn multi_interface_requests_constrain_the_root() {
    // A spec where one component implements both requested interfaces
    // and another implements only one.
    let spec = ServiceSpec::new("multi")
        .interface(Interface::new("Send", Vec::<String>::new()))
        .interface(Interface::new("Search", Vec::<String>::new()))
        .component(Component::new("Basic").implements(InterfaceRef::plain("Send")))
        .component(
            Component::new("Full")
                .implements(InterfaceRef::plain("Send"))
                .implements(InterfaceRef::plain("Search"))
                .behavior(Behavior::new().cpu_per_request_ms(5.0)),
        );
    let mut net = Network::new();
    let n = net.add_node("n", "s", 1.0, Credentials::new());
    let t = MappingTranslator::new();

    // Send alone: the cheaper Basic wins.
    let plan = Planner::new(spec.clone())
        .plan(&net, &t, &ServiceRequest::new("Send", n))
        .unwrap();
    assert_eq!(plan.graph.to_string(), "Basic");

    // Send + Search: only Full qualifies.
    let plan = Planner::new(spec.clone())
        .plan(
            &net,
            &t,
            &ServiceRequest::new("Send", n).also_needs("Search"),
        )
        .unwrap();
    assert_eq!(plan.graph.to_string(), "Full");

    // An unimplementable combination errors.
    let err = Planner::new(spec)
        .plan(&net, &t, &ServiceRequest::new("Send", n).also_needs("Nope"))
        .unwrap_err();
    assert!(matches!(err, PlanError::NoImplementers(_)));
}

#[test]
fn user_acl_conditions_gate_on_request_context() {
    // The paper's Figure 2 example: `MailClient` carries
    // `Conditions: User = Alice` — an access-control list realized as an
    // installation condition over the request-scoped environment.
    let spec = ServiceSpec::new("acl")
        .property(Property::text("User"))
        .interface(Interface::new("Api", Vec::<String>::new()))
        .component(
            Component::new("AliceClient")
                .implements(InterfaceRef::plain("Api"))
                .condition(Condition::equals("User", "Alice")),
        );
    let mut net = Network::new();
    let n = net.add_node("n", "s", 1.0, Credentials::new());
    let t = MappingTranslator::new();

    let alice = ServiceRequest::new("Api", n).env(Environment::new().with("User", "Alice"));
    assert!(Planner::new(spec.clone()).plan(&net, &t, &alice).is_ok());

    let bob = ServiceRequest::new("Api", n).env(Environment::new().with("User", "Bob"));
    let err = Planner::new(spec.clone()).plan(&net, &t, &bob).unwrap_err();
    assert!(matches!(err, PlanError::NoFeasibleMapping { .. }));

    // No user context at all also fails (conditions fail safe).
    let anon = ServiceRequest::new("Api", n);
    assert!(Planner::new(spec).plan(&net, &t, &anon).is_err());
}

#[test]
fn avoided_hosts_are_down_weighted_not_excluded() {
    let (net, c, s) = network(true);
    // A free root normally lands at the origin (the server node, per the
    // deployment-cost tie-break pinned by `free_root_charges_the_client_edge`);
    // avoiding that host pushes the root off it without making planning
    // infeasible.
    let plan = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s).free_root().avoid(s))
        .unwrap();
    assert_ne!(
        plan.placements[0].node, s,
        "root moved off the avoided host"
    );
    // The pinned Server still sits on the avoided node — this is a
    // penalty, not an exclusion — and the objective carries it, so any
    // penalty-free mapping would have won instead.
    assert_eq!(plan.placement_of("Server").unwrap().node, s);
    assert!(plan.objective_value >= ps_planner::AVOID_PENALTY);
}

#[test]
fn avoidance_moves_movable_placements_exactly_as_the_reference_does() {
    // On the insecure WAN the Tunnel normally colocates with the client
    // (zero-latency edge beats the 0.1 ms hop to the spare edge node);
    // avoiding the client host pays the penalty once for the colocated
    // root but must move every *movable* placement — the Tunnel — to the
    // spare node, in the search core and in the reference descent alike.
    let (net, c, s) = network(false);
    let spare = NodeId(1);
    let baseline = planner(PlannerConfig::default())
        .plan(&net, &translator(), &request(c, s))
        .unwrap();
    assert_eq!(baseline.placement_of("Tunnel").unwrap().node, c);
    let avoiding = request(c, s).avoid(c);
    let config = PlannerConfig::default();
    let plan = planner(config.clone())
        .plan(&net, &translator(), &avoiding)
        .unwrap();
    assert_eq!(plan.placement_of("Tunnel").unwrap().node, spare);
    assert_eq!(plan.placements[0].node, c, "colocated root stays put");
    let reference = reference::plan(
        &spec(),
        &net,
        &translator(),
        &avoiding,
        &config.limits,
        config.objective,
    );
    reference::assert_agree(Some(&plan), reference.as_ref(), "under avoidance");
}
