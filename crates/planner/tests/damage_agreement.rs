//! The search core against the reference descent on *damaged* BRITE
//! networks: after every random latency flap, link toggle or node toggle
//! `Planner::plan` must be the reference's answer — value, placements,
//! and infeasible exactly when the reference finds nothing. Flat solve
//! only: `hier_equivalence.rs` owns the (measured) hierarchical claim.

use ps_net::brite::{hierarchical, FlatParams, HierParams};
use ps_net::{LinkId, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::{Planner, ServiceRequest};
use ps_sim::{Rng, SimDuration};
use ps_spec::prelude::*;
use ps_spec::PropertyValue;

#[path = "reference/mod.rs"]
mod reference;

/// Client -> (Tunnel -> Untunnel ->) Server, as in `planner_unit.rs`:
/// the tunnel pair lets the planner route around insecure inter-AS
/// links, which gives damage a real chance to change the optimal shape.
fn spec() -> ServiceSpec {
    let backend =
        || InterfaceRef::with_bindings("Backend", Bindings::new().bind_lit("Secure", true));
    let proxied = || InterfaceRef::plain("Proxied");
    let traffic = |cpu_ms: f64, bytes: u64| {
        let behavior = Behavior::new().cpu_per_request_ms(cpu_ms);
        behavior.message_bytes(bytes, bytes)
    };
    let component = |name: &str, implements: InterfaceRef, behavior: Behavior| {
        Component::new(name)
            .implements(implements)
            .behavior(behavior)
    };
    let client = component("Client", InterfaceRef::plain("Api"), traffic(1.0, 1000));
    let server = component("Server", backend(), traffic(10.0, 1000).capacity(50.0));
    let tunnel = component("Tunnel", backend(), traffic(0.5, 1100));
    let untunnel = component("Untunnel", proxied(), traffic(0.5, 1000));
    ServiceSpec::new("damage")
        .property(Property::boolean("Secure"))
        .property(Property::boolean("Hosting"))
        .interface(Interface::new("Api", ["Secure"]))
        .interface(Interface::new("Backend", ["Secure"]))
        .interface(Interface::new("Proxied", ["Secure"]))
        .component(client.requires(backend()))
        .component(server.condition(Condition::equals("Hosting", true)))
        .component(tunnel.requires(proxied()))
        .component(untunnel.requires(backend()))
        .rule(ModificationRule::boolean_and("Secure"))
}

fn translator() -> MappingTranslator {
    let copy = |name: &str| Mapping::Copy {
        credential: name.into(),
        property: name.into(),
        default: PropertyValue::Bool(false),
    };
    MappingTranslator::new()
        .link_mapping(copy("Secure"))
        .node_mapping(copy("Hosting"))
        .node_mapping(Mapping::Constant {
            property: "Secure".into(),
            value: PropertyValue::Bool(true),
        })
}

/// A BRITE hierarchy whose server AS can host; the generator marks
/// inter-AS links `Secure = false`, so cross-site traffic needs the tunnel.
fn world(seed: u64) -> (Network, NodeId, NodeId) {
    let router = FlatParams {
        nodes: 6,
        ..FlatParams::default()
    };
    let params = HierParams {
        as_count: 3,
        router,
        ..HierParams::default()
    };
    let mut net = hierarchical(&mut Rng::seed_from_u64(seed), &params);
    let first_in = |net: &Network, site: &str| {
        let mut ids = net.node_ids();
        ids.find(|&id| net.node(id).site == site).unwrap()
    };
    let (client, server) = (first_in(&net, "as2"), first_in(&net, "as0"));
    for id in 0..net.node_count() as u32 {
        let node = net.node_mut(NodeId(id));
        if node.site == "as0" {
            node.credentials = node.credentials.clone().with("Hosting", true);
        }
    }
    (net, client, server)
}

/// One random damage step: a latency flap, a link toggle, or a toggle of
/// a node other than the client and the pinned server (`keep`).
fn damage(rng: &mut Rng, net: &mut Network, keep: [NodeId; 2]) {
    let kind = rng.next_below(3);
    if kind == 2 {
        let id = NodeId(rng.next_below(net.node_count() as u64) as u32);
        if !keep.contains(&id) {
            let up = net.node(id).up;
            net.set_node_up(id, !up);
        }
        return;
    }
    let id = LinkId(rng.next_below(net.link_count() as u64) as u32);
    if kind == 0 {
        net.link_mut(id).latency = SimDuration::from_micros(100 + rng.next_below(5000));
    } else {
        let up = net.link(id).up;
        net.set_link_up(id, !up);
    }
}

#[test]
fn the_search_is_the_reference_after_every_damage_step() {
    let (spec, translator, planner) = (spec(), translator(), Planner::new(spec()));
    let (limits, objective) = (&planner.config.limits, planner.config.objective);
    let mut feasible = 0;
    for seed in 0..6u64 {
        let (mut net, client, server) = world(100 + seed);
        let request = ServiceRequest::new("Api", client)
            .rate(2.0)
            .pin("Server", server)
            .origin(server);
        let mut rng = Rng::seed_from_u64(9000 + seed);
        for step in 1..=5 {
            damage(&mut rng, &mut net, [client, server]);
            let plan = planner.plan(&net, &translator, &request).ok();
            let expected = reference::plan(&spec, &net, &translator, &request, limits, objective);
            let context = format!("seed {seed}, damage step {step}");
            reference::assert_agree(plan.as_ref(), expected.as_ref(), &context);
            feasible += usize::from(plan.is_some());
        }
    }
    assert!(feasible > 0, "no damaged network stayed plannable");
}
