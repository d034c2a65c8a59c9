//! Property tests: the planner's search core is exactly the reference.
//!
//! The reference (`crates/planner/tests/reference/mod.rs`) is the
//! paper's exhaustive search taken literally — no bounds, no memo, no
//! incumbent. The bounded, memoised core must return the same optimum:
//! the same value *and* the very same placements. Cases are generated by
//! deterministic seeded loops over `ps_sim::Rng`, so every failure is
//! reproducible from the printed case number.

use ps_net::{Credentials, Network, NodeId, ScopedRoutes};
use ps_planner::exhaustive::{self, Incumbent};
use ps_planner::{
    enumerate_linkages, LinkageGraph, LinkageLimits, Mapper, Objective, PlanError, PlanStats,
    Planner, PlannerConfig, ServiceRequest,
};
use ps_sim::{Rng, SimDuration};
use ps_spec::prelude::*;
use ps_spec::{PropertyValue, ResolvedBindings};
use std::sync::Arc;

#[path = "../crates/planner/tests/reference/mod.rs"]
mod reference;

/// A random linear-ish service spec: client -> relay* -> server, with a
/// cacheable view in the middle, randomized behaviours.
fn random_spec(relays: usize, rrf: f64, caps: bool) -> ServiceSpec {
    let mut spec = ServiceSpec::new("gen")
        .property(Property::boolean("Secure"))
        .property(Property::interval("Level", 1, 9))
        .interface(Interface::new("Api", ["Secure", "Level"]))
        .rule(ModificationRule::boolean_and("Secure"));
    // Server.
    spec = spec.component(
        Component::new("Server")
            .implements(InterfaceRef::with_bindings(
                "Api",
                Bindings::new()
                    .bind_lit("Secure", true)
                    .bind_lit("Level", 9i64),
            ))
            .behavior({
                let b = Behavior::new()
                    .cpu_per_request_ms(1.0)
                    .message_bytes(1024, 1024);
                if caps {
                    b.capacity(500.0)
                } else {
                    b
                }
            }),
    );
    // Relays that re-assert security (encryptor-like).
    for i in 0..relays {
        spec = spec.component(
            Component::new(format!("Relay{i}"))
                .implements(InterfaceRef::with_bindings(
                    "Api",
                    Bindings::new().bind_lit("Secure", true),
                ))
                .requires(InterfaceRef::with_bindings(
                    "Api",
                    Bindings::new()
                        .bind_lit("Secure", true)
                        .bind_lit("Level", 1i64),
                ))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.5)
                        .rrf(rrf)
                        .message_bytes(1024, 1024),
                ),
        );
    }
    // Client.
    spec.component(
        Component::new("Client")
            .implements(InterfaceRef::with_bindings(
                "Api",
                Bindings::new().bind_lit("Level", 1i64),
            ))
            .requires(InterfaceRef::with_bindings(
                "Api",
                Bindings::new()
                    .bind_lit("Secure", true)
                    .bind_lit("Level", 2i64),
            ))
            .behavior(
                Behavior::new()
                    .cpu_per_request_ms(0.2)
                    .message_bytes(1024, 1024),
            ),
    )
}

/// A random two-to-four-site network with mixed link security; every
/// node carries a `Tier` credential in 0..=3 (read only by
/// [`view_spec`]'s `View`).
fn random_net(sites: usize, per_site: usize, seeds: &[u8]) -> Network {
    let mut net = Network::new();
    let mut all = Vec::new();
    for s in 0..sites {
        let mut site_nodes = Vec::new();
        for n in 0..per_site {
            let id = net.add_node(
                format!("s{s}n{n}"),
                format!("site{s}"),
                1.0 + (seeds[(s * per_site + n) % seeds.len()] % 3) as f64,
                Credentials::new().with("Tier", tier(seeds[(s * per_site + n + 1) % seeds.len()])),
            );
            site_nodes.push(id);
        }
        for w in site_nodes.windows(2) {
            net.add_link(
                w[0],
                w[1],
                SimDuration::from_micros(100),
                1e8,
                Credentials::new().with("Secure", true),
            );
        }
        all.push(site_nodes);
    }
    for s in 1..sites {
        let secure = seeds[s % seeds.len()].is_multiple_of(2);
        let latency = 10 + (seeds[(s * 3) % seeds.len()] as u64 % 200);
        net.add_link(
            all[s - 1][0],
            all[s][0],
            SimDuration::from_millis(latency),
            8e6 + (seeds[(s * 5) % seeds.len()] as f64) * 1e6,
            Credentials::new().with("Secure", secure),
        );
    }
    net
}

/// [`random_spec`] with a three-way fan-out behind its server: `Server`
/// now requires `Store`, `Index` and `Auth` (a tree node with three
/// children), and `Store` can be had from `StoreServer` directly or through
/// `StoreCache`, so the enumerated graphs share `Server` and every relay
/// above it while differing in the child context below them. Callers
/// pin `StoreServer` and `IndexServer` ([`pin_fanout_backends`]) and
/// leave `AuthServer` — the third child — roaming, so its host is part
/// of what a verdict on `Server` depends on.
fn fanout_spec(relays: usize, rrf: f64) -> ServiceSpec {
    let secure = |level: i64| {
        Bindings::new()
            .bind_lit("Secure", true)
            .bind_lit("Level", level)
    };
    let mut spec = random_spec(relays, rrf, true);
    for leaf in ["Store", "Index", "Auth"] {
        spec = spec
            .interface(Interface::new(leaf, ["Secure", "Level"]))
            .component(
                Component::new(format!("{leaf}Server"))
                    .implements(InterfaceRef::with_bindings(leaf, secure(9)))
                    .behavior(
                        Behavior::new()
                            .cpu_per_request_ms(0.3)
                            .message_bytes(512, 512),
                    ),
            );
    }
    spec.component(
        Component::new("StoreCache")
            .implements(InterfaceRef::with_bindings("Store", secure(5)))
            .requires(InterfaceRef::with_bindings("Store", secure(1)))
            .behavior(
                Behavior::new()
                    .cpu_per_request_ms(0.1)
                    .rrf(0.25)
                    .message_bytes(512, 512),
            ),
    )
    .component(
        Component::new("Server")
            .implements(InterfaceRef::with_bindings("Api", secure(9)))
            .requires(InterfaceRef::with_bindings("Store", secure(1)))
            .requires(InterfaceRef::with_bindings("Index", secure(1)))
            .requires(InterfaceRef::with_bindings("Auth", secure(1)))
            .behavior(
                Behavior::new()
                    .cpu_per_request_ms(1.0)
                    .capacity(500.0)
                    .message_bytes(1024, 1024),
            ),
    )
}

/// Pins the two [`fanout_spec`] leaf servers that do not roam.
fn pin_fanout_backends(request: ServiceRequest, net: &Network) -> ServiceRequest {
    let backend = net.find_node("s1n0").expect("exists");
    request
        .pin("StoreServer", backend)
        .pin("IndexServer", backend)
}

/// A node's `Tier` from its seed byte.
fn tier(seed: u8) -> i64 {
    i64::from(seed >> 3) % 4
}

/// [`random_spec`] plus `View`, a data view of `Server` factored by its
/// host's `Tier` (installable on tiers 1–3, so a network offers up to
/// three factor classes of it and tier-0 hosts are non-candidates). Like
/// the mail service's view server it provides and requires its own tier
/// as `Level`, so a lower-tier view may chain onto a higher-tier one.
fn view_spec(relays: usize, rrf: f64) -> ServiceSpec {
    let tiered = || {
        Bindings::new()
            .bind_lit("Secure", true)
            .bind_env("Level", "Node.Tier")
    };
    random_spec(relays, rrf, true)
        .property(Property::interval("Tier", 0, 3))
        .component(
            Component::view("View", "Server", ViewKind::Data)
                .factors(Bindings::new().bind_env("Level", "Node.Tier"))
                .implements(InterfaceRef::with_bindings("Api", tiered()))
                .requires(InterfaceRef::with_bindings("Api", tiered()))
                .condition(Condition::in_range("Node.Tier", 1, 3))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.4)
                        .rrf(0.2)
                        .message_bytes(1024, 1024),
                ),
        )
}

/// The factors `View` resolves to on a tier-`tier` host.
fn view_factors(tier: i64) -> ResolvedBindings {
    let mut factors = ResolvedBindings::new();
    factors.insert("Level", PropertyValue::Int(tier));
    factors
}

fn random_seeds(rng: &mut Rng) -> Vec<u8> {
    let len = 8 + rng.next_below(8) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn translator() -> ps_net::MappingTranslator {
    ps_net::MappingTranslator::new()
        .link_mapping(ps_net::Mapping::Copy {
            credential: "Secure".into(),
            property: "Secure".into(),
            default: ps_spec::PropertyValue::Bool(false),
        })
        .node_mapping(ps_net::Mapping::Constant {
            property: "Secure".into(),
            value: ps_spec::PropertyValue::Bool(true),
        })
        .node_mapping(ps_net::Mapping::Copy {
            credential: "Tier".into(),
            property: "Tier".into(),
            default: ps_spec::PropertyValue::Int(0),
        })
}

fn limits() -> LinkageLimits {
    LinkageLimits {
        max_repeats: 1,
        max_depth: 6,
        max_graphs: 512,
        ..LinkageLimits::default()
    }
}

/// [`limits`] with room for a relay and the view to repeat on a path.
fn repeat_limits() -> LinkageLimits {
    LinkageLimits {
        max_repeats: 2,
        max_depth: 4,
        ..limits()
    }
}

fn core_plan(
    spec: &ServiceSpec,
    net: &Network,
    request: &ServiceRequest,
    objective: Objective,
    limits: &LinkageLimits,
) -> Result<ps_planner::Plan, PlanError> {
    let planner = Planner::with_config(
        spec.clone(),
        PlannerConfig {
            objective,
            limits: limits.clone(),
            ..Default::default()
        },
    );
    planner.plan(net, &translator(), request)
}

/// Plans with the core and with the reference under [`limits`] and
/// asserts they agree; see [`assert_core_is_reference_within`].
fn assert_core_is_reference(
    spec: &ServiceSpec,
    net: &Network,
    request: &ServiceRequest,
    objective: Objective,
    context: &str,
) -> Option<ps_planner::Plan> {
    assert_core_is_reference_within(&limits(), spec, net, request, objective, context)
}

/// Plans with the core and with the reference and asserts they agree on
/// value and placements, and that the core reports `NoFeasibleMapping`
/// exactly when the reference finds nothing; returns the core's plan.
fn assert_core_is_reference_within(
    limits: &LinkageLimits,
    spec: &ServiceSpec,
    net: &Network,
    request: &ServiceRequest,
    objective: Objective,
    context: &str,
) -> Option<ps_planner::Plan> {
    let core = match core_plan(spec, net, request, objective, limits) {
        Ok(plan) => Some(plan),
        Err(PlanError::NoFeasibleMapping { .. }) => None,
        Err(other) => panic!("{context}: {other}"),
    };
    let reference = reference::plan(spec, net, &translator(), request, limits, objective);
    reference::assert_agree(core.as_ref(), reference.as_ref(), context);
    core
}

/// A request from the last node to a `Server` pinned on `s0n0`.
fn pinned_request(net: &Network, rate: f64) -> ServiceRequest {
    let server = net.find_node("s0n0").expect("exists");
    let client = net.node_ids().last().expect("nodes");
    ServiceRequest::new("Api", client)
        .rate(rate)
        .pin("Server", server)
        .origin(server)
}

/// The bounded, memoised search is *exactly* the reference descent: same
/// optimum value and the very same placements — host, provided
/// properties and factors of every node — for every additive objective
/// and for MaxCapacity (where bounding is disabled). Cases from 24 up
/// plan the fan-out spec, whose graphs share components over differing
/// child contexts and whose server has three children; the two smaller
/// families are the networks the deleted pairwise-agreement tests drew
/// (capacity-bound relays; capacity-free chains).
#[test]
fn bounded_exhaustive_is_exactly_the_oracle() {
    let objectives = [
        Objective::MinLatency,
        Objective::MinCost,
        Objective::MaxCapacity,
        Objective::Weighted {
            latency_weight: 1.0,
            cost_weight: 0.01,
        },
    ];
    let mut fanout_planned = 0;
    for case in 0..36u64 {
        let mut rng = Rng::seed_from_u64(case).derive("oracle-vs-bounded");
        let sites = 2 + rng.next_below(2) as usize;
        let per_site = 1 + rng.next_below(2) as usize;
        let relays = 1 + rng.next_below(2) as usize;
        let rrf = *rng.choose(&[0.1, 0.5, 1.0]);
        let seeds = random_seeds(&mut rng);
        let fanout = case >= 24;

        let net = random_net(sites, per_site, &seeds);
        let mut request = pinned_request(&net, 2.0);
        let spec = if fanout {
            request = pin_fanout_backends(request, &net);
            fanout_spec(relays, rrf)
        } else {
            random_spec(relays, rrf, true)
        };
        for objective in objectives {
            let context = format!("case {case} {objective:?}");
            let Some(plan) = assert_core_is_reference(&spec, &net, &request, objective, &context)
            else {
                continue;
            };
            if fanout {
                fanout_planned += 1;
                assert!(plan.stats.graphs_enumerated >= 2, "{context}");
                assert!(
                    plan.graph.nodes.iter().any(|n| n.children.len() > 2),
                    "{context}: the fan-out node is missing"
                );
            }
        }
    }
    assert!(
        fanout_planned >= 12,
        "only {fanout_planned} fan-out configurations were feasible — the extra inputs are vacuous"
    );

    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case).derive("exh-vs-pop");
        let sites = 2 + rng.next_below(2) as usize;
        let per_site = 1 + rng.next_below(2) as usize;
        let relays = 1 + rng.next_below(2) as usize;
        let rrf = *rng.choose(&[0.1, 0.5, 1.0]);
        let seeds = random_seeds(&mut rng);
        let net = random_net(sites, per_site, &seeds);
        let spec = random_spec(relays, rrf, true);
        let request = pinned_request(&net, 2.0);
        let context = format!("capacity-bound case {case}");
        assert_core_is_reference(&spec, &net, &request, Objective::MinLatency, &context);
    }
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case).derive("exh-vs-dp");
        let sites = 2 + rng.next_below(2) as usize;
        let relays = 1 + rng.next_below(2) as usize;
        let rrf = *rng.choose(&[0.2, 1.0]);
        let seeds = random_seeds(&mut rng);
        let net = random_net(sites, 2, &seeds);
        let spec = random_spec(relays, rrf, false);
        let request = pinned_request(&net, 1.0);
        let context = format!("capacity-free chain case {case}");
        assert_core_is_reference(&spec, &net, &request, Objective::MinLatency, &context);
    }
}

#[test]
fn min_cost_objective_agrees_too() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case).derive("mincost-agree");
        let relays = 1 + rng.next_below(2) as usize;
        let seeds = random_seeds(&mut rng);

        let spec = random_spec(relays, 0.5, false);
        let net = random_net(2, 2, &seeds);
        let request = pinned_request(&net, 1.0);
        let context = format!("case {case}");
        assert_core_is_reference(&spec, &net, &request, Objective::MinCost, &context);
    }
}

/// The planner is total: arbitrary (well-formed) specs and requests
/// produce `Ok` or a structured error, never a panic — including
/// cyclic requirement structures kept finite by the linkage limits.
#[test]
fn planner_never_panics() {
    for case in 0..12u64 {
        let mut rng = Rng::seed_from_u64(case).derive("planner-total");
        let sites = 1 + rng.next_below(3) as usize;
        let per_site = 1 + rng.next_below(2) as usize;
        let relays = rng.next_below(4) as usize;
        let rrf = *rng.choose(&[0.0, 0.3, 1.0, 2.0]);
        let rate = *rng.choose(&[0.0, 1.0, 1e6]);
        let pin_server = rng.chance(0.5);
        let seeds = random_seeds(&mut rng);

        let mut spec = random_spec(relays, rrf, true);
        // Make the relay cycle-prone: the last relay requires Api, which
        // every relay implements — enumeration must stay bounded.
        if relays > 0 {
            spec = spec.component(
                Component::new("Loop")
                    .implements(InterfaceRef::plain("Api"))
                    .requires(InterfaceRef::plain("Api")),
            );
        }
        let net = random_net(sites, per_site, &seeds);
        let client = net.node_ids().last().expect("nodes");
        let mut request = ServiceRequest::new("Api", client).rate(rate);
        if pin_server {
            if let Some(server) = net.find_node("s0n0") {
                request = request.pin("Server", server);
            }
        }
        let _ = core_plan(&spec, &net, &request, Objective::MinLatency, &limits());
        let _ = core_plan(&spec, &net, &request, Objective::MaxCapacity, &limits());
    }
}

/// The case the serving path actually plans: live instances to attach
/// to, a view whose factors differ by host, and limits under which a
/// relay and the view may repeat. Every case draws 0–6 existing
/// instances — of the view or a relay, on any node (candidate hosts and
/// hosts the component cannot be installed on alike), with the factors
/// the component resolves to there or with others — and the core must
/// be the reference on value, placements and preexisting flags.
#[test]
fn plans_over_live_instances_and_factored_views_are_the_references() {
    let objectives = [
        Objective::MinLatency,
        Objective::MinCost,
        Objective::MaxCapacity,
        Objective::Weighted {
            latency_weight: 1.0,
            cost_weight: 0.01,
        },
    ];
    let (mut attached, mut repeated, mut infeasible) = (0, 0, 0);
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case).derive("live-instances");
        let sites = 2 + rng.next_below(2) as usize;
        let per_site = 1 + rng.next_below(2) as usize;
        let relays = 1 + rng.next_below(2) as usize;
        let rrf = *rng.choose(&[0.1, 0.5, 1.0]);
        let seeds = random_seeds(&mut rng);
        let net = random_net(sites, per_site, &seeds);
        let spec = view_spec(relays, rrf);

        // At 800 requests/s the 500/s server is only reachable behind a
        // view or a low-RRF relay, so some requests have no mapping.
        let mut request = pinned_request(&net, *rng.choose(&[2.0, 2.0, 800.0]));
        for _ in 0..rng.next_below(7) {
            let node = NodeId(rng.next_below(net.node_count() as u64) as u32);
            let matching = rng.chance(0.6);
            request = if rng.chance(0.5) {
                let tier = match net.node(node).credentials.get("Tier") {
                    Some(PropertyValue::Int(tier)) => *tier,
                    other => panic!("node without a tier: {other:?}"),
                };
                let level = if matching { tier } else { tier % 3 + 1 };
                request.existing_instance("View", node, view_factors(level))
            } else {
                let factors = match matching {
                    true => ResolvedBindings::new(),
                    false => view_factors(7),
                };
                let relay = rng.next_below(relays as u64);
                request.existing_instance(format!("Relay{relay}"), node, factors)
            };
        }

        for objective in objectives {
            let context = format!("case {case} {objective:?}");
            let plan = assert_core_is_reference_within(
                &repeat_limits(),
                &spec,
                &net,
                &request,
                objective,
                &context,
            );
            let Some(plan) = plan else {
                infeasible += 1;
                continue;
            };
            let attaches = |p: &ps_planner::Placement| p.preexisting && p.component != "Server";
            attached += usize::from(plan.placements.iter().any(attaches));
            let components: std::collections::BTreeSet<&str> =
                plan.placements.iter().map(|p| &*p.component).collect();
            repeated += usize::from(components.len() < plan.placements.len());
        }
    }
    assert!(
        attached >= 8 && repeated >= 8 && infeasible >= 4,
        "the generator went vacuous: {attached} plans attach to a live instance, \
         {repeated} repeat a component, {infeasible} requests are infeasible"
    );
}

/// A line `n0 — n1 — … — nk` of secure 1 ms links whose node `i` has
/// tier `tiers[i]`; the server is pinned on `n0`, the client sits on
/// `nk`.
fn tiered_line(tiers: &[i64]) -> (Network, ServiceRequest) {
    let mut net = Network::new();
    let nodes: Vec<NodeId> = (0..tiers.len())
        .map(|i| {
            let credentials = Credentials::new().with("Tier", tiers[i]);
            net.add_node(format!("s{i}n0"), format!("site{i}"), 1.0, credentials)
        })
        .collect();
    for pair in nodes.windows(2) {
        let secure = Credentials::new().with("Secure", true);
        net.add_link(pair[0], pair[1], SimDuration::from_millis(1), 1e8, secure);
    }
    let request = pinned_request(&net, 1.0);
    (net, request)
}

/// The enumerated graph that is the chain `components`, root first.
fn chain_graph(spec: &ServiceSpec, components: &[&str]) -> LinkageGraph {
    enumerate_linkages(spec, "Api", &repeat_limits())
        .into_iter()
        .find(|graph| {
            graph
                .nodes
                .iter()
                .map(|n| &*n.component)
                .eq(components.iter().copied())
        })
        .unwrap_or_else(|| panic!("{components:?} is not enumerated"))
}

/// One graph's optimum as the directed cases read it: every tree node's
/// host and preexisting flag.
type Found = Option<(Vec<NodeId>, Vec<bool>)>;

/// Searches `graph` alone — core and reference, each over its own
/// mapper — asserts they find the same optimum, and returns the core's
/// hosts and preexisting flags with the statistics of its search.
fn search_one_graph(
    spec: &ServiceSpec,
    net: &Network,
    request: &ServiceRequest,
    graph: &LinkageGraph,
) -> (Found, PlanStats) {
    let translator = translator();
    let mapper = || {
        let routes = Arc::new(ScopedRoutes::new(net));
        Mapper::new(
            spec,
            net,
            &translator,
            request,
            Objective::MinLatency,
            routes,
        )
    };
    let mut stats = PlanStats::default();
    let core = exhaustive::search(&mapper(), graph, &mut stats, &Incumbent::new());
    let reference = reference::search_graph(&mapper(), graph);
    let summary = |found: Option<(Vec<NodeId>, ps_planner::Evaluation)>| {
        found.map(|(hosts, eval)| (hosts, eval.objective_value, eval.factors, eval.preexisting))
    };
    let (core, reference) = (summary(core), summary(reference));
    assert_eq!(core, reference, "{graph}");
    (
        core.map(|(hosts, _, _, preexisting)| (hosts, preexisting)),
        stats,
    )
}

/// What a search that skipped its graph on the multiplicity bound
/// leaves behind: one prune, nothing else.
fn skipped() -> PlanStats {
    PlanStats {
        prunes: 1,
        ..PlanStats::default()
    }
}

/// Data views, one case per branch: two views over hosts of one factor
/// class can never coexist, so the graph is skipped unsearched; with a
/// second class among the hosts the bound admits the graph and the
/// descent's identity check rejects the same-class pairs; and the
/// Seattle shape — a lower-tier view chained onto an existing
/// higher-tier one — attaches.
#[test]
fn same_class_data_views_are_skipped_and_distinct_classes_chain() {
    let spec = view_spec(1, 0.5);
    let two_views = chain_graph(&spec, &["Client", "View", "View", "Server"]);

    let (net, request) = tiered_line(&[0, 2, 2, 0]);
    let (found, stats) = search_one_graph(&spec, &net, &request, &two_views);
    assert_eq!((found, stats), (None, skipped()));

    let (net, request) = tiered_line(&[0, 3, 3, 2, 0]);
    let (found, stats) = search_one_graph(&spec, &net, &request, &two_views);
    let (hosts, _) = found.expect("tier 2 chains onto tier 3");
    assert_eq!(net.node(hosts[1]).name, "s3n0");
    assert!(
        stats.prunes > 0 && stats.mappings_evaluated > 0,
        "{stats:?}"
    );

    let (net, request) = tiered_line(&[0, 3, 2, 0]);
    let san_diego = net.find_node("s1n0").expect("exists");
    let request = request.existing_instance("View", san_diego, view_factors(3));
    let (found, _) = search_one_graph(&spec, &net, &request, &two_views);
    let (hosts, preexisting) = found.expect("Seattle chains onto San Diego's view");
    assert_eq!(hosts[2], san_diego);
    assert_eq!(preexisting, [false, false, true, true]);
}

/// Relays (one factor class everywhere): two fresh instances of one
/// configuration are never both created, so without an attachable one
/// the graph is skipped — also when the only live instance carries
/// other factors — while one existing relay admits the graph and is the
/// one reused.
#[test]
fn a_repeated_relay_needs_a_live_instance_to_attach_to() {
    let spec = view_spec(1, 0.5);
    let two_relays = chain_graph(&spec, &["Client", "Relay0", "Relay0", "Server"]);
    let (net, request) = tiered_line(&[0, 0, 0, 0]);
    let live = net.find_node("s1n0").expect("exists");

    let (found, stats) = search_one_graph(&spec, &net, &request, &two_relays);
    assert_eq!((found, stats), (None, skipped()));

    let other = request
        .clone()
        .existing_instance("Relay0", live, view_factors(7));
    let (found, stats) = search_one_graph(&spec, &net, &other, &two_relays);
    assert_eq!((found, stats), (None, skipped()));

    let attachable = request
        .clone()
        .existing_instance("Relay0", live, ResolvedBindings::new());
    let (found, stats) = search_one_graph(&spec, &net, &attachable, &two_relays);
    let (hosts, preexisting) = found.expect("one fresh relay beside the live one");
    let reused: Vec<NodeId> = (1..=2)
        .filter(|&i| preexisting[i])
        .map(|i| hosts[i])
        .collect();
    assert_eq!(reused, [live]);
    assert!(
        stats.prunes > 0,
        "fresh pairs are rejected in the descent: {stats:?}"
    );

    // A whole plan counts each skipped graph as one prune: letting
    // components repeat adds graphs to the sweep that each double a
    // client or a relay and, with nothing to attach to, exactly one
    // prune apiece to the statistics.
    let spec = random_spec(1, 0.5, true);
    let plan = |limits: LinkageLimits| {
        core_plan(&spec, &net, &request, Objective::MinLatency, &limits).expect("plans")
    };
    let (once, twice) = (plan(limits()), plan(repeat_limits()));
    assert_eq!(twice.placements, once.placements);
    let repeating = twice.stats.graphs_enumerated - once.stats.graphs_enumerated;
    assert!(repeating > 0);
    assert_eq!(
        twice.stats,
        PlanStats {
            graphs_enumerated: once.stats.graphs_enumerated + repeating,
            prunes: once.stats.prunes + repeating as u64,
            ..once.stats
        }
    );
}

/// A diamond `server — {left, right} — client` of four identical secure
/// links: the two middle hosts carry a tier a `Client` accepts a `View`
/// of, and nothing but their names tells them apart. A third `View`
/// host hangs off the client, of a tier too low to serve it: never part
/// of a mapping, but as the candidate nearest the client it is what the
/// suffix bound's per-edge minimum reads, so only the chain bound prices
/// the client edge of the other two.
fn diamond() -> (Network, ServiceRequest, [NodeId; 2]) {
    let mut net = Network::new();
    let mut host = |site: usize, tier: i64| {
        let credentials = Credentials::new().with("Tier", tier);
        net.add_node(
            format!("s{site}n0"),
            format!("site{site}"),
            1.0,
            credentials,
        )
    };
    let (server, left, right) = (host(0, 0), host(1, 2), host(2, 2));
    let (near, client) = (host(3, 1), host(4, 0));
    let mut link = |a: NodeId, b: NodeId, ms: u64| {
        let secure = Credentials::new().with("Secure", true);
        net.add_link(a, b, SimDuration::from_millis(ms), 1e8, secure);
    };
    for (a, b) in [
        (server, left),
        (server, right),
        (left, client),
        (right, client),
    ] {
        link(a, b, 20);
    }
    link(near, client, 1);
    let request = pinned_request(&net, 1.0);
    (net, request, [left, right])
}

/// The `MinLatency` objective of `Client → View → Server` over
/// [`diamond`] with the view on `middle`, as the evaluator prices it.
fn objective_over(
    spec: &ServiceSpec,
    net: &Network,
    request: &ServiceRequest,
    chain: &LinkageGraph,
    middle: NodeId,
) -> f64 {
    let translator = translator();
    let routes = Arc::new(ScopedRoutes::new(net));
    let mapper = Mapper::new(
        spec,
        net,
        &translator,
        request,
        Objective::MinLatency,
        routes,
    );
    let hosts = [request.client_node, middle, request.pinned["Server"]];
    let eval = mapper.evaluate(chain, &hosts).expect("feasible");
    eval.objective_value
}

/// Two mappings with bit-equal objectives: the search returns the one
/// the reference finds first, having explored the other (its bound
/// equals the incumbent; only a strictly larger one cuts).
#[test]
fn bit_equal_objectives_resolve_to_the_first_found() {
    let spec = view_spec(1, 0.5);
    let chain = chain_graph(&spec, &["Client", "View", "Server"]);
    let (net, request, [left, right]) = diamond();

    let objective = |middle| objective_over(&spec, &net, &request, &chain, middle);
    assert_eq!(objective(left).to_bits(), objective(right).to_bits());

    let (found, stats) = search_one_graph(&spec, &net, &request, &chain);
    let (hosts, _) = found.expect("feasible");
    assert_eq!(hosts[1], left);
    assert_eq!((stats.mappings_evaluated, stats.bound_prunes), (2, 0));
}

/// Two mappings `MinLatency` tells apart only by its `1e-9 · cost`
/// term (~5e-7 of ~49): a live view on one middle host. Whichever host
/// the descent reaches first, the search returns the reference's
/// optimum, the live one — the chain bound's safety margin never cuts
/// an optimum this close below the incumbent. And when the optimum
/// comes first the other view is cut where it stands, before its flow
/// check (5 flow computations: every placement of the descent but that
/// view and the client above it; all 7 the other way round) — the
/// margin is far tighter than the closest objectives the planner
/// distinguishes; a looser one leaves the cut to the exact partial one
/// level up.
#[test]
fn a_tie_break_apart_the_bound_keeps_the_optimum_and_cuts_the_other() {
    let spec = view_spec(1, 0.5);
    let chain = chain_graph(&spec, &["Client", "View", "Server"]);
    let (net, request, [left, right]) = diamond();

    for (live, evaluated, cut, flows) in [(left, 1, 1, 5), (right, 2, 0, 7)] {
        let request = request
            .clone()
            .existing_instance("View", live, view_factors(2));
        let (found, stats) = search_one_graph(&spec, &net, &request, &chain);
        let (hosts, preexisting) = found.expect("feasible");
        assert_eq!((hosts[1], preexisting[1]), (live, true));
        assert_eq!(
            (
                stats.mappings_evaluated,
                stats.bound_prunes,
                stats.flow_evals
            ),
            (evaluated, cut, flows),
            "live view on {live:?}"
        );

        let objective = |middle| objective_over(&spec, &net, &request, &chain, middle);
        let apart = (objective(left) - objective(right)).abs();
        assert!((4e-7..6e-7).contains(&apart), "{apart}");
    }
}
