//! Deployment-engine and generic-server tests over a minimal service.

use ps_net::{Credentials, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::{ExistingInstance, HierConfig, Plan, PlannerConfig, ServiceRequest};
use ps_sim::SimDuration;
use ps_smock::{
    deploy, server, ComponentLogic, ConnectError, Connection, GenericServer, InstanceId, Outbox,
    Payload, RequestHandle, ServiceRegistration, World,
};
use ps_spec::prelude::*;
use ps_spec::ResolvedBindings;
use std::sync::Arc;

struct Nop;
impl ComponentLogic for Nop {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, p: &Payload) {
        out.reply(req, p.clone());
    }
    fn on_response(&mut self, _o: &mut Outbox, _t: u64, _p: &Payload) {}
}

fn spec() -> ServiceSpec {
    ServiceSpec::new("svc")
        .property(Property::boolean("Hosting"))
        .interface(Interface::new("Api", Vec::<String>::new()))
        .interface(Interface::new("Backend", Vec::<String>::new()))
        .component(
            Component::new("Front")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::plain("Backend"))
                .behavior(Behavior::new().code_size(80_000)),
        )
        .component(
            Component::new("Back")
                .implements(InterfaceRef::plain("Backend"))
                .condition(Condition::equals("Hosting", true))
                .behavior(Behavior::new().code_size(200_000)),
        )
}

fn network() -> (Network, NodeId, NodeId) {
    network_at(20)
}

/// The edge and the data centre, one 10 Mb/s link of `latency_ms`
/// between them.
fn network_at(latency_ms: u64) -> (Network, NodeId, NodeId) {
    let mut net = Network::new();
    let edge = net.add_node("edge", "e", 1.0, Credentials::new());
    let dc = net.add_node("dc", "d", 1.0, Credentials::new().with("Hosting", true));
    net.add_link(
        edge,
        dc,
        SimDuration::from_millis(latency_ms),
        1e7,
        Credentials::new().with("Secure", true),
    );
    (net, edge, dc)
}

fn translator() -> MappingTranslator {
    MappingTranslator::new().node_mapping(Mapping::Copy {
        credential: "Hosting".into(),
        property: "Hosting".into(),
        default: ps_spec::PropertyValue::Bool(false),
    })
}

fn server(home: NodeId) -> GenericServer {
    let mut gs = GenericServer::new(home, Box::new(translator()));
    gs.registry.register("Front", |_| Box::new(Nop));
    gs.registry.register("Back", |_| Box::new(Nop));
    gs.register_service(
        ServiceRegistration::new(spec())
            .attribute("type", "demo")
            .proxy_code_size(10_000),
    );
    gs
}

#[test]
fn connect_plans_deploys_and_reports_costs() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    let conn = gs.connect(&mut world, "svc", &request).expect("connects");
    assert_eq!(conn.plan.graph.to_string(), "Front -> Back");
    assert_eq!(conn.deployment.created, 2);
    assert_eq!(conn.deployment.reused, 0);
    assert_eq!(conn.deployment.bytes_shipped, 280_000);
    // Proxy download crosses the 20 ms / 10 Mb/s link: 20 + 8 ms.
    assert!((conn.costs.proxy_download_ms - 28.0).abs() < 0.5);
    assert!(conn.costs.planning_ms > 0.0);
    assert!(conn.costs.startup_ms > 0.0);
    assert!(conn.costs.total_ms() > 500.0);
}

#[test]
fn second_connect_reuses_everything() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    let first = gs.connect(&mut world, "svc", &request).unwrap();
    let second = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(second.deployment.created, 0);
    assert_eq!(second.deployment.reused, 2);
    assert_eq!(second.deployment.bytes_shipped, 0);
    assert_eq!(first.root, second.root);
    assert_eq!(second.costs.startup_ms, 0.0);
}

#[test]
fn unknown_service_is_an_error() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let err = gs
        .connect(&mut world, "ghost", &ServiceRequest::new("Api", edge))
        .unwrap_err();
    assert!(matches!(err, ConnectError::UnknownService(_)));
}

#[test]
fn missing_factory_is_a_deploy_error() {
    let (net, edge, dc) = network();
    let mut gs = GenericServer::new(dc, Box::new(translator()));
    gs.registry.register("Front", |_| Box::new(Nop)); // no Back factory
    gs.register_service(ServiceRegistration::new(spec()));
    let mut world = World::new(net);
    let err = gs
        .connect(&mut world, "svc", &ServiceRequest::new("Api", edge))
        .unwrap_err();
    assert!(matches!(
        err,
        ConnectError::Deploy(deploy::DeployError::UnknownComponent(_))
    ));
}

#[test]
fn missing_pinned_instance_is_a_deploy_error() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    // Pin Back to the dc node, but never install it.
    let request = ServiceRequest::new("Api", edge).pin("Back", dc);
    let err = gs.connect(&mut world, "svc", &request).unwrap_err();
    assert!(matches!(
        err,
        ConnectError::Deploy(deploy::DeployError::MissingPinned { .. })
    ));
}

#[test]
fn infeasible_requests_surface_planning_errors() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    // No component implements this interface.
    let err = gs
        .connect(&mut world, "svc", &ServiceRequest::new("Nope", edge))
        .unwrap_err();
    assert!(matches!(err, ConnectError::Planning(_)));
}

#[test]
fn lookup_finds_services_by_attribute() {
    let (_, _, dc) = network();
    let gs = server(dc);
    assert_eq!(gs.lookup.lookup(&[("type", "demo")]).len(), 1);
    assert_eq!(gs.lookup.lookup(&[("type", "other")]).len(), 0);
    assert_eq!(gs.lookup.by_name("svc").unwrap().proxy_code_size, 10_000);
}

#[test]
fn blueprint_transfer_time_scales_with_code_size() {
    let (net, edge, dc) = network();
    let world = World::new(net);
    let small = world.transfer_time(dc, edge, 10_000);
    let large = world.transfer_time(dc, edge, 1_000_000);
    assert!(large > small);
    assert_eq!(large, server::transfer_time(&world, dc, edge, 1_000_000));
    assert_eq!(world.route_rows_built(), 1, "both questions read dc's row");
    assert_eq!(world.transfer_time(dc, dc, 1_000_000), SimDuration::ZERO);
}

#[test]
fn node_wrappers_cache_component_code() {
    // Two differently-factored instances of one component on one node:
    // the second ships no blueprint bytes.
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let first = gs
        .connect(&mut world, "svc", &ServiceRequest::new("Api", edge))
        .unwrap();
    assert_eq!(first.deployment.bytes_shipped, 280_000);
    // Retire the Front instance so a fresh one must be created on the
    // same node — its code is already there.
    world.retire(first.root);
    let second = gs
        .connect(&mut world, "svc", &ServiceRequest::new("Api", edge))
        .unwrap();
    assert_eq!(second.deployment.created, 1, "new Front instance");
    assert_eq!(
        second.deployment.bytes_shipped, 0,
        "the wrapper reused the cached code"
    );
}

#[test]
fn deployments_record_shipped_blueprints() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let conn = gs
        .connect(&mut world, "svc", &ServiceRequest::new("Api", edge))
        .unwrap();
    let names: Vec<&str> = conn
        .deployment
        .blueprints
        .iter()
        .map(|b| b.component.as_str())
        .collect();
    assert_eq!(names, vec!["Front", "Back"]);
    assert_eq!(
        conn.deployment
            .blueprints
            .iter()
            .map(|b| b.code_size)
            .sum::<u64>(),
        conn.deployment.bytes_shipped
    );
}

#[test]
fn plan_cache_hits_on_identical_reconnect() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    // First connect: nothing deployed yet, cold cache.
    let first = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(first.costs.plan_stats.plan_cache_hits, 0);
    // Second connect: the live-instance set changed (the first connect
    // deployed), so the key differs — a miss that re-primes the cache.
    let second = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(second.costs.plan_stats.plan_cache_hits, 0);
    // Third connect: identical world, identical request — a hit, and
    // the same plan (hence the same reused deployment) comes back.
    let third = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(third.costs.plan_stats.plan_cache_hits, 1);
    assert_eq!(third.root, second.root);
    assert_eq!(third.deployment.created, 0);
    assert!(world.cached_plan_count() > 0);
}

#[test]
fn plan_cache_is_invalidated_by_link_changes() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    gs.connect(&mut world, "svc", &request).unwrap();
    gs.connect(&mut world, "svc", &request).unwrap();
    let hit = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(hit.costs.plan_stats.plan_cache_hits, 1);
    // A link-condition change bumps the network epoch: the old entry
    // must not be served again.
    world.update_link(ps_net::LinkId(0), SimDuration::from_millis(40), 5e6);
    let after = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(after.costs.plan_stats.plan_cache_hits, 0);
    // The replan saw the slower link in its objective.
    assert!(after.plan.expected_latency_ms > hit.plan.expected_latency_ms);
}

#[test]
fn plan_cache_is_invalidated_by_instance_retirement() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    gs.connect(&mut world, "svc", &request).unwrap();
    let primed = gs.connect(&mut world, "svc", &request).unwrap();
    let hit = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(hit.costs.plan_stats.plan_cache_hits, 1);
    // Retiring the root shrinks the live-instance snapshot baked into
    // the cache key; the next connect must replan (and redeploy).
    world.retire(primed.root);
    let after = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(after.costs.plan_stats.plan_cache_hits, 0);
    assert_eq!(after.deployment.created, 1);
}

/// Plans are cached under the registration they were solved for: a
/// service re-registered under the same name with a different spec is
/// planned against the new spec, though network and live set are the
/// same as when the old spec's plan was stored.
#[test]
fn reregistered_service_is_planned_against_its_new_spec() {
    let (net, edge, dc) = network();
    let mut gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    gs.connect(&mut world, "svc", &request).unwrap();
    gs.connect(&mut world, "svc", &request).unwrap();
    assert!(world.cached_plan_count() > 0);
    let mut standalone = spec();
    standalone.components.insert(
        "Front".into(),
        Component::new("Front")
            .implements(InterfaceRef::plain("Api"))
            .behavior(Behavior::new().code_size(80_000)),
    );
    gs.register_service(ServiceRegistration::new(standalone));
    let after = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(after.costs.plan_stats.plan_cache_hits, 0);
    assert_eq!(after.plan.graph.to_string(), "Front");
}

/// Instances belong to the registration that deployed them: after the
/// service is re-registered, a connect neither attaches the old spec's
/// instances to its plan nor reuses and rewires them, so the first
/// connection's root keeps its back end.
#[test]
fn reregistered_service_leaves_the_old_registrations_instances_alone() {
    let (net, edge, dc) = network();
    let mut gs = server(dc);
    let mut world = World::new(net);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    let first = gs.connect(&mut world, "svc", &request).unwrap();
    gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(world.instance(first.root).linkages, vec![InstanceId(1)]);
    let mut standalone = spec();
    standalone.components.insert(
        "Front".into(),
        Component::new("Front")
            .implements(InterfaceRef::plain("Api"))
            .behavior(Behavior::new().code_size(80_000)),
    );
    gs.register_service(ServiceRegistration::new(standalone));
    let after = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(after.plan.graph.to_string(), "Front");
    assert_eq!((after.deployment.created, after.deployment.reused), (1, 0));
    assert_ne!(after.root, first.root);
    assert_eq!(world.instance(first.root).linkages, vec![InstanceId(1)]);
}

/// Connects until the plan cache answers, returning that connect.
fn settle(gs: &GenericServer, world: &mut World, request: &ServiceRequest) -> Connection {
    for _ in 0..4 {
        let conn = gs.connect(world, "svc", request).unwrap();
        if conn.costs.plan_stats.plan_cache_hits == 1 {
            return conn;
        }
    }
    panic!("the plan cache never answered");
}

/// The plan for `request` over `world`'s live instances as they are
/// now, solved without the plan cache: every live instance, in instance
/// order (each test's instances are all `svc`'s).
fn planned_over_live_set(gs: &GenericServer, world: &World, request: &ServiceRequest) -> Plan {
    let mut resolved = request.clone();
    resolved.existing = (0..world.instance_count() as u32)
        .map(InstanceId)
        .filter(|&id| !world.is_retired(id))
        .map(|id| world.instance(id))
        .map(|info| ExistingInstance {
            component: info.component.clone(),
            node: info.node,
            factors: info.factors.clone(),
        })
        .collect();
    let spec = &gs.lookup.by_name("svc").unwrap().spec;
    gs.plan_uncached(world, spec, &resolved).unwrap()
}

/// Connects, asserting the plan cache did not answer and the plan is
/// the one solved over the live set the connect found.
fn assert_plans_against_live_set(
    gs: &GenericServer,
    world: &mut World,
    request: &ServiceRequest,
    what: &str,
) {
    let expected = planned_over_live_set(gs, world, request);
    let conn = gs.connect(world, "svc", request).unwrap();
    assert_eq!(
        conn.costs.plan_stats.plan_cache_hits, 0,
        "{what}: a stale hit"
    );
    assert_eq!(
        (&conn.plan.graph, &conn.plan.placements),
        (&expected.graph, &expected.placements),
        "{what}"
    );
    assert_eq!(
        conn.plan.deployment_cost_ms, expected.deployment_cost_ms,
        "{what}"
    );
}

/// Every way the world changes its live instances between two connects
/// (an instantiation, a retirement, a host crash, a migration) makes
/// the second connect plan against the new set, never answer from the
/// plan cached for the old one.
#[test]
fn every_live_set_change_is_planned_against() {
    /// Mutates a world settled by a connect from `edge` (`dc` hosts).
    type Mutation = fn(&mut World, &Connection, NodeId, NodeId);
    let mutations: [(&str, Mutation); 4] = [
        ("instantiate", |world, _, _, dc| {
            let now = world.now();
            let (bindings, behavior) = (ResolvedBindings::new(), Behavior::new());
            world.instantiate("Back", dc, bindings, behavior, Box::new(Nop), now);
        }),
        ("retire", |world, conn, _, _| world.retire(conn.root)),
        ("crash", |world, _, edge, _| {
            assert_eq!(world.crash_node(edge).len(), 1);
        }),
        ("migrate", |world, conn, _, dc| {
            world.migrate(conn.root, dc);
        }),
    ];
    for (what, mutate) in mutations {
        let (net, edge, dc) = network();
        let gs = server(dc);
        let mut world = World::new(net);
        let request = ServiceRequest::new("Api", edge).rate(1.0);
        let settled = settle(&gs, &mut world, &request);
        let epoch = world.network().epoch();
        mutate(&mut world, &settled, edge, dc);
        assert_eq!(
            world.network().epoch(),
            epoch,
            "{what}: only the live set moved"
        );
        assert_plans_against_live_set(&gs, &mut world, &request, what);
    }
}

/// One server serving two worlds with as many instances each, but not
/// the same ones, hands neither world a plan cached for the other: the
/// second world plans against its own live set, and the first is still
/// answered from its own cache.
#[test]
fn two_worlds_never_share_a_cached_plan() {
    let (net, edge, dc) = network();
    let gs = server(dc);
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    let mut deployed = World::new(net.clone());
    let settled = settle(&gs, &mut deployed, &request);
    // The same two components, installed by hand both on the data
    // centre node.
    let mut installed = World::new(net);
    for component in ["Back", "Front"] {
        let now = installed.now();
        let (bindings, behavior) = (ResolvedBindings::new(), Behavior::new());
        installed.instantiate(component, dc, bindings, behavior, Box::new(Nop), now);
    }
    assert_eq!(deployed.instance_count(), installed.instance_count());
    assert_plans_against_live_set(&gs, &mut installed, &request, "installed");
    let again = gs.connect(&mut deployed, "svc", &request).unwrap();
    assert_eq!(again.costs.plan_stats.plan_cache_hits, 1);
    assert!(Arc::ptr_eq(&again.plan, &settled.plan));
}

/// A server keeps no per-world state: after a connect on one world, a
/// connect on a second world — same shape, same network epoch, its one
/// link ten times slower — reports what a fresh server reports there,
/// not the first world's route or plan.
#[test]
fn a_second_world_is_served_as_a_fresh_server_serves_it() {
    let (fast, edge, dc) = network_at(20);
    let (slow, _, _) = network_at(200);
    assert_eq!(fast.epoch(), slow.epoch());
    let request = ServiceRequest::new("Api", edge).rate(1.0);
    let gs = server(dc);
    gs.connect(&mut World::new(fast), "svc", &request).unwrap();
    let shared = gs
        .connect(&mut World::new(slow.clone()), "svc", &request)
        .unwrap();
    let fresh = server(dc)
        .connect(&mut World::new(slow), "svc", &request)
        .unwrap();
    for conn in [&shared, &fresh] {
        // 200 ms + 10 kB over 10 Mb/s.
        assert_eq!(conn.costs.proxy_download_ms, 208.0);
        assert!((conn.plan.expected_latency_ms - 402.048).abs() < 1e-9);
    }
    assert_eq!(shared.plan.placements, fresh.plan.placements);
    assert_eq!(shared.ready_at, fresh.ready_at);
}

/// A client edge, a transit router with an off-corridor host one
/// millisecond away, and a data centre, each its own region; `Tier`
/// credentials 0, 1 and 2 on the edge, the transit host and the data
/// centre.
fn tiered_network() -> (Network, NodeId, NodeId, NodeId) {
    let mut net = Network::new();
    let tier = |t: i64| Credentials::new().with("Tier", t);
    let edge = net.add_node("edge", "e", 1.0, tier(0));
    let router = net.add_node("router", "t", 1.0, tier(0));
    let transit = net.add_node("transit-host", "t", 1.0, tier(1));
    let dc = net.add_node("dc", "d", 1.0, tier(2));
    let secure = || Credentials::new().with("Secure", true);
    for (a, b, ms) in [(edge, router, 10), (router, dc, 10), (router, transit, 1)] {
        net.add_link(a, b, SimDuration::from_millis(ms), 1e8, secure());
    }
    (net, edge, transit, dc)
}

/// [`spec`]'s two components, `Front` installable on tier-0 hosts only
/// and `Back` on hosts of at least `min_tier`.
fn tiered_spec(min_tier: i64) -> ServiceSpec {
    ServiceSpec::new("svc")
        .property(Property::interval("Tier", 0, 2))
        .interface(Interface::new("Api", Vec::<String>::new()))
        .interface(Interface::new("Backend", Vec::<String>::new()))
        .component(
            Component::new("Front")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::plain("Backend"))
                .condition(Condition::at_most("Tier", 0)),
        )
        .component(
            Component::new("Back")
                .implements(InterfaceRef::plain("Backend"))
                .condition(Condition::at_least("Tier", min_tier)),
        )
}

/// A hierarchical-planning server for [`tiered_spec`]`(min_tier)`.
fn tiered_server(home: NodeId, min_tier: i64) -> GenericServer {
    let translator = MappingTranslator::new().node_mapping(Mapping::Copy {
        credential: "Tier".into(),
        property: "Tier".into(),
        default: ps_spec::PropertyValue::Int(0),
    });
    let mut gs = GenericServer::new(home, Box::new(translator));
    gs.planner_config = PlannerConfig {
        hier: Some(HierConfig::default()),
        ..PlannerConfig::default()
    };
    gs.registry.register("Front", |_| Box::new(Nop));
    gs.registry.register("Back", |_| Box::new(Nop));
    gs.register_service(ServiceRegistration::new(tiered_spec(min_tier)));
    gs
}

/// Segment shortlists are kept per registration: once the service is
/// re-registered with `Back` installable one tier lower, the transit
/// host — off the edge↔data-centre corridor, so only its region's
/// shortlist can bring it into the plan — now fits, and the next
/// connect places `Back` there, as a fresh world and server do, instead
/// of answering from the shortlist the old registration left.
#[test]
fn a_reregistration_that_widens_a_condition_replans_its_shortlists() {
    let (net, edge, transit, dc) = tiered_network();
    let request = ServiceRequest::new("Api", edge).origin(dc).rate(1.0);
    let back = |conn: &Connection| {
        let placed = conn.plan.placements.iter().find(|p| p.component == "Back");
        placed.expect("a Back placement").node
    };
    let mut gs = tiered_server(dc, 2);
    let mut world = World::new(net.clone());
    let before = gs.connect(&mut world, "svc", &request).unwrap();
    assert_eq!(back(&before), dc);

    gs.register_service(ServiceRegistration::new(tiered_spec(1)));
    let after = gs.connect(&mut world, "svc", &request).unwrap();
    let fresh = tiered_server(dc, 1)
        .connect(&mut World::new(net), "svc", &request)
        .unwrap();
    assert_eq!(back(&fresh), transit);
    assert_eq!(
        (&after.plan.graph, &after.plan.placements),
        (&fresh.plan.graph, &fresh.plan.placements)
    );
    assert_eq!(after.plan.objective_value, fresh.plan.objective_value);
}

/// Instance churn on a quiet network must not grow the plan cache: plans
/// stored under a live-instance set that is gone are swept, so the cache
/// never holds more than one plan per distinct client. Eight clients'
/// root instances are switched on and off along a Gray code, so each of
/// the 200 cycles presents a live set never seen before.
#[test]
fn plan_cache_stays_bounded_under_instance_churn_at_one_epoch() {
    const CLIENTS: usize = 8;
    let mut net = Network::new();
    let dc = net.add_node("dc", "d", 1.0, Credentials::new().with("Hosting", true));
    let edges: Vec<NodeId> = (0..CLIENTS)
        .map(|i| {
            let edge = net.add_node(format!("edge{i}"), "e", 1.0, Credentials::new());
            net.add_link(
                edge,
                dc,
                SimDuration::from_millis(20),
                1e7,
                Credentials::new().with("Secure", true),
            );
            edge
        })
        .collect();
    let gs = server(dc);
    let mut world = World::new(net);
    let epoch = world.network().epoch();
    let requests: Vec<ServiceRequest> = edges
        .iter()
        .map(|&edge| ServiceRequest::new("Api", edge).rate(1.0))
        .collect();

    let mut roots = [None; CLIENTS];
    for cycle in 1..=200u32 {
        let client = cycle.trailing_zeros() as usize % CLIENTS;
        match roots[client].take() {
            Some(root) => world.retire(root),
            None => {
                let conn = gs.connect(&mut world, "svc", &requests[client]).unwrap();
                assert_eq!(conn.costs.plan_stats.plan_cache_hits, 0, "cycle {cycle}");
                roots[client] = Some(conn.root);
            }
        }
        // Any live client asking again plans against the new live set.
        if let Some(live) = roots.iter().position(Option::is_some) {
            gs.connect(&mut world, "svc", &requests[live]).unwrap();
        }
        assert!(
            world.cached_plan_count() <= CLIENTS,
            "cycle {cycle}: {} cached plans for {CLIENTS} clients",
            world.cached_plan_count()
        );
    }
    assert_eq!(world.network().epoch(), epoch, "the network never moved");
}
