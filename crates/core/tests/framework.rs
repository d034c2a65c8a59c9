//! Facade-level tests of the assembled framework.

use ps_core::Framework;
use ps_net::{Credentials, Mapping, MappingTranslator, Network, NodeId};
use ps_planner::ServiceRequest;
use ps_smock::{ComponentLogic, Outbox, Payload, RequestHandle, ServiceRegistration};
use ps_spec::prelude::*;

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
