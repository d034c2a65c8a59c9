//! Hierarchical gateway-composed planning ships the composed plan as it
//! is — no refinement sweep, no gap bound — because on every fabric
//! measured the composed objective *is* the flat optimum. The first
//! test is that measurement, kept honest: for 14 seeded BRITE fabrics
//! `plan_hierarchical` must land on the same objective value as the flat
//! `plan` (itself checked against the reference descent), and agree with
//! it on feasibility.
//!
//! The second test pins the memo-invalidation contract: a region-local
//! link change kills exactly that region's shortlist entries, leaving
//! every other region's memo live. The last pins the fall-back's
//! accounting: a universe with no feasible mapping re-plans flat and
//! keeps the statistics of the restricted attempt.

use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{LinkId, Mapping, MappingTranslator, Network, NodeId, RegionMap};
use ps_planner::{HierConfig, HierMemo, Planner, PlannerConfig, ServiceRequest};
use ps_sim::{Rng, SimDuration};
use ps_spec::prelude::*;
use ps_spec::PropertyValue;

#[path = "reference/mod.rs"]
mod reference;

/// Client -> (Tunnel -> Untunnel ->) Server, as in
/// `repair_equivalence.rs`: the tunnel pair lets the planner route
/// around insecure inter-AS links, so the optimal shape genuinely
/// depends on the fabric drawn.
fn spec() -> ServiceSpec {
    ServiceSpec::new("hier")
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

/// Random BRITE fabric: 4 autonomous systems of 6 routers, every
/// `as0` node hosting-capable, client drawn from the far side so the
/// chain crosses region borders.
fn world(seed: u64) -> (Network, NodeId, NodeId) {
    fabric(seed, 4, 6)
}

/// [`world`] at a chosen size: `as_count` autonomous systems of
/// `routers` routers, server in `as0`, client in the last one.
fn fabric(seed: u64, as_count: usize, routers: usize) -> (Network, NodeId, NodeId) {
    let mut rng = Rng::seed_from_u64(seed);
    let params = HierParams {
        as_count,
        router: FlatParams {
            nodes: routers,
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
    let far_side = format!("as{}", as_count - 1);
    let client = net
        .node_ids()
        .find(|&id| net.node(id).site == far_side)
        .unwrap();
    (net, client, server)
}

fn flat_planner() -> Planner {
    Planner::new(spec())
}

fn hier_planner() -> Planner {
    Planner::with_config(
        spec(),
        PlannerConfig {
            hier: Some(HierConfig::default()),
            ..PlannerConfig::default()
        },
    )
}

fn request(client: NodeId, server: NodeId) -> ServiceRequest {
    ServiceRequest::new("Api", client)
        .rate(2.0)
        .pin("Server", server)
        .origin(server)
}

#[test]
fn composed_hier_matches_flat_optimum_across_fabrics() {
    let flat = flat_planner();
    let hier = hier_planner();
    let translator = translator();
    let mut planned = 0u32;
    let mut composed = 0u32;
    for seed in 0..14u64 {
        let (net, client, server) = world(4200 + seed);
        let request = request(client, server);
        let memo = HierMemo::new();
        let flat_plan = flat.plan(&net, &translator, &request);
        let hier_plan = hier.plan_hierarchical(&net, &translator, &request, &memo);
        // The flat search is the reference descent down to every node's
        // host, provided properties and factors (the tunnel pair recurs
        // across this spec's graphs over different children).
        let reference = reference::plan(
            &spec(),
            &net,
            &translator,
            &request,
            &flat.config.limits,
            flat.config.objective,
        );
        reference::assert_agree(
            flat_plan.as_ref().ok(),
            reference.as_ref(),
            &format!("seed {seed}"),
        );
        match (flat_plan, hier_plan) {
            (Ok(flat_plan), Ok(hier_plan)) => {
                assert!(
                    (flat_plan.objective_value - hier_plan.objective_value).abs() < 1e-9,
                    "seed {seed}: composed hierarchical objective {} != flat optimum {}",
                    hier_plan.objective_value,
                    flat_plan.objective_value
                );
                planned += 1;
                if hier_plan.stats.hier_segments > 0 {
                    composed += 1;
                }
            }
            (Err(_), Err(_)) => continue, // both agree: nothing feasible
            (flat_plan, hier_plan) => panic!(
                "seed {seed}: flat and hierarchical disagree on feasibility: \
                 flat={:?} hier={:?}",
                flat_plan.map(|p| p.objective_value),
                hier_plan.map(|p| p.objective_value)
            ),
        }
    }
    assert!(
        planned >= 12,
        "only {planned} of 14 fabrics produced a feasible plan"
    );
    assert!(
        composed >= 6,
        "only {composed} runs actually composed regions — the property is vacuous"
    );
}

#[test]
fn region_local_change_invalidates_only_that_regions_memo() {
    let hier = hier_planner();
    let translator = translator();
    // Find a fabric whose plan actually composes, so the memo holds
    // shortlists from more than one region.
    for seed in 0..14u64 {
        let (mut net, client, server) = world(4200 + seed);
        let request = request(client, server);
        let memo = HierMemo::new();
        let Ok(plan) = hier.plan_hierarchical(&net, &translator, &request, &memo) else {
            continue;
        };
        if plan.stats.hier_segments == 0 {
            continue;
        }
        let map = RegionMap::build(&net);
        let total = memo.total_entries();
        assert_eq!(
            memo.live_entries(&net, &map),
            total,
            "seed {seed}: fresh memo must be fully live"
        );

        // A link strictly inside as0 (the hosting region, always a
        // transit region of this request) bumps only as0's epoch.
        let intra = (0..net.link_count() as u32)
            .map(LinkId)
            .find(|&l| {
                let link = net.link(l);
                net.node(link.a).site == "as0" && net.node(link.b).site == "as0"
            })
            .expect("an intra-as0 link");
        net.link_mut(intra).latency = SimDuration::from_micros(12_345);

        let live = memo.live_entries(&net, &map);
        let dead = total - live;
        assert!(
            dead > 0,
            "seed {seed}: an intra-as0 link change must kill as0's shortlists"
        );
        assert!(
            live > 0,
            "seed {seed}: an intra-as0 link change must not touch other regions' shortlists"
        );

        // Replanning re-solves exactly the dead region's segments and
        // still hits the surviving ones.
        let replan = hier
            .plan_hierarchical(&net, &translator, &request, &memo)
            .expect("replan after intra-region change");
        assert_eq!(
            replan.stats.hier_segments as usize, dead,
            "seed {seed}: replan must re-solve exactly the invalidated segments"
        );
        assert!(
            replan.stats.hier_memo_hits > 0,
            "seed {seed}: replan must hit the surviving regions' shortlists"
        );
        return;
    }
    panic!("no fabric seed produced a composed plan with a multi-region memo");
}

/// `PlanStats::route_rows_built` is this plan's own routing work: a
/// second plan through a shared memo reports only the rows it added to
/// the epoch's `ScopedRoutes`, not the running total.
#[test]
fn plans_sharing_a_memo_report_only_their_own_routing_rows() {
    let hier = hier_planner();
    let translator = translator();
    for seed in 0..14u64 {
        // Large enough that the composition universe — the sources that
        // get a row — is a small part of the fabric.
        let (net, client, server) = fabric(4200 + seed, 5, 40);
        let memo = HierMemo::new();
        let Ok(first) = hier.plan_hierarchical(&net, &translator, &request(client, server), &memo)
        else {
            continue;
        };
        if first.stats.hier_segments == 0 {
            continue;
        }
        let rows_after_first = memo.scoped_routes(&net).rows_built() as u64;
        assert!(rows_after_first > 0, "seed {seed}");
        assert_eq!(
            first.stats.route_rows_built, rows_after_first,
            "seed {seed}"
        );

        // The last router of the client's AS: every shortlist is a memo
        // hit and most rows exist already, but its own source row does
        // not.
        let neighbour = net
            .node_ids()
            .filter(|&id| net.node(id).site == "as4")
            .last()
            .expect("as4 has routers");
        let second = hier
            .plan_hierarchical(&net, &translator, &request(neighbour, server), &memo)
            .expect("the neighbour plans too");
        let rows_after_second = memo.scoped_routes(&net).rows_built() as u64;
        assert!(rows_after_second > rows_after_first, "seed {seed}");
        assert_eq!(
            second.stats.route_rows_built,
            rows_after_second - rows_after_first,
            "seed {seed}: the second plan must not be charged the first plan's rows"
        );
        return;
    }
    panic!("no fabric seed produced a composed plan");
}

/// When the composition universe holds no feasible mapping the solve
/// re-plans flat — and the work of the restricted attempt stays on the
/// books: segments solved, memo traffic, routing rows and the wasted
/// search all show in the returned `PlanStats` and the
/// `planner.hier.*` counters instead of vanishing with the fall-back.
#[test]
fn infeasible_universe_falls_back_flat_and_keeps_its_accounting() {
    let bare = |name: &str| Interface::new(name, Vec::<String>::new());
    let spec = ServiceSpec::new("detour")
        .property(Property::boolean("Hosting"))
        .property(Property::boolean("RelayHost"))
        .interface(bare("Api"))
        .interface(bare("Mid"))
        .interface(bare("Backend"))
        .component(
            Component::new("Client")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::plain("Mid")),
        )
        .component(
            Component::new("Relay")
                .implements(InterfaceRef::plain("Mid"))
                .requires(InterfaceRef::plain("Backend"))
                .condition(Condition::equals("RelayHost", true)),
        )
        .component(
            Component::new("Server")
                .implements(InterfaceRef::plain("Backend"))
                .condition(Condition::equals("Hosting", true)),
        );
    let translator = translator().node_mapping(Mapping::Copy {
        credential: "RelayHost".into(),
        property: "RelayHost".into(),
        default: PropertyValue::Bool(false),
    });

    // Regions `a` (client) and `b` (server) are joined directly; `c`
    // hangs off `b` and no anchor-to-anchor route transits it, so its
    // hosts enter no shortlist — and the only host a Relay installs on
    // is there.
    let mut net = Network::new();
    let mut node = |name: &str, site: &str, credential: &str| {
        let credentials = ps_net::Credentials::new().with(credential, true);
        net.add_node(name, site, 1.0, credentials)
    };
    let a0 = node("a0", "a", "Plain");
    let a1 = node("a1", "a", "Plain");
    let b1 = node("b1", "b", "Plain");
    let b0 = node("b0", "b", "Hosting");
    let c0 = node("c0", "c", "RelayHost");
    let c1 = node("c1", "c", "Plain");
    for (from, to) in [(a0, a1), (a1, b1), (b1, b0), (b0, c0), (c0, c1)] {
        let secure = ps_net::Credentials::new().with("Secure", true);
        net.add_link(from, to, SimDuration::from_millis(5), 1e8, secure);
    }
    let request = ServiceRequest::new("Api", a0).pin("Server", b0).origin(b0);

    let flat = Planner::new(spec.clone())
        .plan(&net, &translator, &request)
        .expect("flat plans through c0");
    assert_eq!(flat.placement_of("Relay").unwrap().node, c0);

    let (tracer, _sink) = ps_trace::Tracer::memory();
    let hier_planner = Planner::with_config(
        spec,
        PlannerConfig {
            hier: Some(HierConfig::default()),
            tracer: tracer.clone(),
            ..PlannerConfig::default()
        },
    );
    let memo = HierMemo::new();
    let hier = hier_planner
        .plan_hierarchical(&net, &translator, &request, &memo)
        .expect("the fall-back plans");
    assert_eq!(
        (hier.objective_value, &hier.placements),
        (flat.objective_value, &flat.placements)
    );
    assert!(
        hier.stats.hier_segments > 0,
        "the restricted attempt's segments"
    );
    // One table served both attempts: the plan is charged every row it
    // holds, the restricted attempt's and the fall-back's.
    assert_eq!(
        hier.stats.route_rows_built,
        memo.scoped_routes(&net).rows_built() as u64
    );
    assert!(hier.stats.work_units() >= flat.stats.work_units());
    let registry = tracer.registry().unwrap();
    assert_eq!(registry.counter("planner.hier.plans"), 1);
    assert_eq!(
        registry.counter("planner.hier.segments"),
        u64::from(hier.stats.hier_segments)
    );
}

/// A flat planner handed a memo reads the memo's rows: the first solve
/// builds at most a row per source, a second solve of the epoch none,
/// and neither a bare epoch bump nor a leaf host's crash makes the next
/// solve rebuild what the change left exact. Every solve returns what a
/// memo-less `plan` returns.
#[test]
fn flat_solves_on_a_memo_rebuild_no_row_a_change_left_exact() {
    let flat = flat_planner();
    let translator = translator();
    let (mut net, client, server) = world(42);
    // A leaf host off the client's router: its crash touches no other
    // source's shortest-path tree.
    let leaf = net.add_node(
        "leaf",
        net.node(client).site.clone(),
        1.0,
        Default::default(),
    );
    let secure = ps_net::Credentials::new().with("Secure", true);
    net.add_link(client, leaf, SimDuration::from_millis(1), 1e8, secure);
    let request = request(client, server);
    let n = net.node_count() as u64;
    let memo = HierMemo::new();
    let solve = |net: &Network| {
        let plan = flat
            .plan_hierarchical(net, &translator, &request, &memo)
            .expect("feasible");
        let alone = flat.plan(net, &translator, &request).expect("feasible");
        assert_eq!(
            (plan.objective_value, &plan.placements, &plan.edges),
            (alone.objective_value, &alone.placements, &alone.edges)
        );
        assert_eq!(plan.stats.hier_segments, 0, "no `hier`, no composition");
        plan.stats.route_rows_built
    };

    let first = solve(&net);
    assert!(first > 0 && first <= n, "{first} rows on {n} nodes");
    assert_eq!(solve(&net), 0, "the epoch's rows are built");
    net.touch();
    assert_eq!(solve(&net), 0, "a bare epoch bump leaves every row exact");
    // Only the leaf's own row is dropped, and a down host is no source.
    net.set_node_up(leaf, false);
    assert_eq!(solve(&net), 0, "a leaf crash leaves every other row exact");
}
