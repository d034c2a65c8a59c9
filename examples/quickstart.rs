//! Quickstart: declare a tiny partitionable service, let the framework
//! plan and deploy it, and make one call through the deployed chain.
//!
//! Run with `cargo run --example quickstart`.

use partitionable_services::core::Framework;
use partitionable_services::net::{Credentials, Mapping, MappingTranslator, Network};
use partitionable_services::planner::ServiceRequest;
use partitionable_services::sim::SimDuration;
use partitionable_services::smock::{
    ComponentLogic, Outbox, Payload, RequestHandle, ServiceRegistration,
};
use partitionable_services::spec::prelude::*;
use partitionable_services::spec::PropertyValue;

/// The simplest possible service: a `Greeter` the client talks to.
struct Greeter;

impl ComponentLogic for Greeter {
    fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
        let name = payload.get::<String>().cloned().unwrap_or_default();
        out.reply(req, Payload::new(format!("hello, {name}!"), 64));
    }
    fn on_response(&mut self, _out: &mut Outbox, _token: u64, _payload: &Payload) {}
}

/// A one-shot caller that prints the reply.
struct Caller;

impl ComponentLogic for Caller {
    fn on_start(&mut self, out: &mut Outbox) {
        out.call(0, Payload::new("world".to_owned(), 64), 1);
    }
    fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _payload: &Payload) {}
    fn on_response(&mut self, out: &mut Outbox, _token: u64, payload: &Payload) {
        if let Some(reply) = payload.get::<String>() {
            println!(
                "reply after {:.3} ms of simulated time: {reply:?}",
                out.now().as_millis_f64()
            );
        }
    }
}

fn main() {
    // 1. A two-site network: the client's laptop and a server room,
    //    joined by a 30 ms link.
    let mut net = Network::new();
    let laptop = net.add_node("laptop", "home", 1.0, Credentials::new());
    let rack = net.add_node("rack", "dc", 2.0, Credentials::new().with("Hosting", true));
    net.add_link(
        laptop,
        rack,
        SimDuration::from_millis(30),
        1e8,
        Credentials::new().with("Secure", true),
    );

    // 2. The declarative specification: a Greeter that may only run on
    //    hosting-capable nodes.
    let spec = ServiceSpec::new("greeter")
        .property(Property::boolean("CanHost"))
        .interface(Interface::new("GreetInterface", ["CanHost"]))
        .component(
            Component::new("Greeter")
                .implements(InterfaceRef::with_bindings(
                    "GreetInterface",
                    Bindings::new().bind_lit("CanHost", true),
                ))
                .condition(Condition::equals("CanHost", true))
                .behavior(Behavior::new().cpu_per_request_ms(0.2)),
        );
    spec.validate().expect("valid spec");

    // 3. Credentials -> service properties.
    let translator = MappingTranslator::new().node_mapping(Mapping::Copy {
        credential: "Hosting".into(),
        property: "CanHost".into(),
        default: PropertyValue::Bool(false),
    });

    // 4. Assemble the framework, register the service and its factory.
    let mut fw = Framework::new(net, rack, Box::new(translator));
    fw.register_component("Greeter", |_args| Box::new(Greeter));
    fw.register_service(ServiceRegistration::new(spec));

    // 5. A client request: the planner places the Greeter (only the rack
    //    qualifies — `free_root` lets it leave the client's node).
    let request = ServiceRequest::new("GreetInterface", laptop)
        .rate(1.0)
        .free_root();
    let connection = fw.connect("greeter", &request).expect("deployable");
    println!("plan:\n{}", connection.plan);
    println!("one-time costs: {}", connection.costs);

    // 6. Call through the deployed chain.
    let caller = fw.world.instantiate(
        "caller",
        laptop,
        Default::default(),
        Behavior::new(),
        Box::new(Caller),
        connection.ready_at,
    );
    fw.world.wire(caller, vec![connection.root]);
    fw.run();
}
