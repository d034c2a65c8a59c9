//! Facade-level tests of the assembled framework.

use ps_core::{Framework, HealError, ManagedId, HEAL_DEBOUNCE};
use ps_net::{Credentials, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::ServiceRequest;
use ps_sim::{FaultPlan, SimTime};
use ps_smock::{
    ComponentLogic, ConnectError, DeployError, LeaseConfig, Outbox, Payload, RequestHandle,
    ServiceRegistration,
};
use ps_spec::prelude::*;
use ps_spec::ResolvedBindings;
use ps_trace::Tracer;

struct Echo;
impl ComponentLogic for Echo {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, p: &Payload) {
        out.reply(req, p.clone());
    }
    fn on_response(&mut self, _o: &mut Outbox, _t: u64, _p: &Payload) {}
}

fn spec() -> ServiceSpec {
    ServiceSpec::new("echo")
        .property(Property::boolean("Host"))
        .interface(Interface::new("Api", Vec::<String>::new()))
        .interface(Interface::new("Backend", Vec::<String>::new()))
        .component(
            Component::new("Proxy")
                .implements(InterfaceRef::plain("Api"))
                .requires(InterfaceRef::plain("Backend")),
        )
        .component(
            Component::new("Service")
                .implements(InterfaceRef::plain("Backend"))
                .condition(Condition::equals("Host", true)),
        )
}

fn build() -> (Framework, NodeId, NodeId) {
    let mut net = Network::new();
    let client = net.add_node("client", "edge", 1.0, Credentials::new());
    let host = net.add_node("host", "dc", 1.0, Credentials::new().with("Host", true));
    net.add_link(
        client,
        host,
        ps_sim::SimDuration::from_millis(10),
        1e8,
        Credentials::new().with("Secure", true),
    );
    let translator = MappingTranslator::new().node_mapping(Mapping::Copy {
        credential: "Host".into(),
        property: "Host".into(),
        default: ps_spec::PropertyValue::Bool(false),
    });
    let mut fw = Framework::new(net, host, Box::new(translator));
    fw.register_component("Proxy", |_| Box::new(Echo));
    fw.register_component("Service", |_| Box::new(Echo));
    fw.register_service(ServiceRegistration::new(spec()));
    (fw, client, host)
}

#[test]
fn connect_deploys_through_the_facade() {
    let (mut fw, client, host) = build();
    let conn = fw
        .connect("echo", &ServiceRequest::new("Api", client))
        .expect("connects");
    assert_eq!(conn.plan.graph.to_string(), "Proxy -> Service");
    assert_eq!(fw.world.instance(conn.root).node, client);
    assert_eq!(fw.world.instance(conn.deployment.instances[1]).node, host);
}

#[test]
fn install_primary_requires_a_known_service_and_factory() {
    let (mut fw, _, host) = build();
    assert!(fw.install_primary("ghost", "Service", host).is_err());
    assert!(fw.install_primary("echo", "NoFactory", host).is_err());
    let id = fw.install_primary("echo", "Service", host).unwrap();
    assert_eq!(fw.world.instance(id).component, "Service");
}

/// `build()`'s framework with the primary `Service` installed on `host`
/// at `at` and the client's pinned connection to it managed.
fn managed_echo(fw: &mut Framework, client: NodeId, host: NodeId, at: SimTime) -> ManagedId {
    fw.run_until(at);
    fw.install_primary("echo", "Service", host).unwrap();
    let request = ServiceRequest::new("Api", client).pin("Service", host);
    let conn = fw.connect("echo", &request).unwrap();
    fw.manage("echo", request, conn)
}

#[test]
fn a_quiet_world_runs_no_heal_pass() {
    let (mut fw, client, host) = build();
    let (tracer, _sink) = Tracer::memory();
    fw.set_tracer(tracer.clone());
    fw.world.enable_leases(LeaseConfig::default());
    managed_echo(&mut fw, client, host, SimTime::ZERO);
    let deadline = SimTime::from_nanos(60_000_000_000);
    assert!(fw.heal_next(deadline).is_none());
    assert_eq!(fw.world.now(), deadline);
    let registry = tracer.registry().unwrap();
    assert_eq!(registry.counter("heal.passes"), 0);
}

/// A redeploy a pass leaves owed is retried by the pass at the next
/// wake, here the primary host's restart, and by no pass in between.
/// Without leases the crash is detected at once: the pass quarantines
/// the host and the pinned `Service` has nowhere to go (infeasible).
/// With leases the primary, granted 300 ms after a second instance on
/// its host, expires 200 ms before it: the pass still sees the host up
/// and finds no live primary there (`MissingPinned`).
#[test]
fn an_owed_redeploy_is_retried_at_the_restarts_wake() {
    let ms = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    for leases in [false, true] {
        let (mut fw, client, host) = build();
        if leases {
            fw.world.enable_leases(LeaseConfig::default());
        }
        let behavior = Behavior::new();
        fw.world.instantiate(
            "Pad",
            host,
            ResolvedBindings::new(),
            behavior,
            Box::new(Echo),
            ms(0),
        );
        let id = managed_echo(&mut fw, client, host, ms(300));
        let mut plan = FaultPlan::new();
        plan.crash(ms(3_000), host.0).restart(ms(4_900), host.0);
        fw.world.install_fault_plan(&plan);

        let owed = fw.heal_next(ms(60_000)).expect("the crash wakes a pass");
        let detected = if leases { ms(4_800) } else { ms(3_000) };
        assert_eq!(owed.at, detected + HEAL_DEBOUNCE, "leases {leases}");
        match (leases, owed.failed.as_slice()) {
            (false, []) => assert_eq!(owed.infeasible, vec![id], "{owed}"),
            (true, [(h, HealError::Deploy(e))]) => {
                assert_eq!(*h, id);
                assert!(matches!(
                    e,
                    ConnectError::Deploy(DeployError::MissingPinned { .. })
                ));
            }
            _ => panic!("leases {leases}: {owed} {:?}", owed.failed),
        }

        let retried = fw.heal_next(ms(60_000)).expect("the restart wakes a pass");
        assert_eq!(retried.at, ms(4_900) + HEAL_DEBOUNCE, "leases {leases}");
        assert_eq!(retried.primaries_restored.len(), 1);
        assert_eq!(retried.recovered, vec![id], "{retried}");
    }
}
