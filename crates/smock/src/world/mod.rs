//! The simulated Smock world: deployed instances exchanging messages
//! over the traffic-shaped network.
//!
//! Messages travel hop-by-hop (store-and-forward) over the links of
//! their route, queueing at busy links exactly as the Click-shaped
//! testbed links did; request handling charges the component's declared
//! per-request CPU cost on the hosting node's FIFO CPU. The world is
//! deterministic: equal seeds and workloads replay identically.
//!
//! One `Event` type and one `State::handle` match drive the world. Each
//! concern owns its part of the state, its handlers and its share of
//! [`World`]'s methods in a module of its own:
//!
//! * `transport` — envelopes, hop-by-hop delivery, forwarding, routes
//!   and the world's serving memo;
//! * `invoke` — outstanding requests, timeouts and retry;
//! * `lease` — lease expiry, crash detection, renewal traffic;
//! * `faults` — crashes, restarts, link state, loss windows;
//! * `sampler` — the time-series sampler and resource gauges;
//! * `migrate` — moving an instance and its state to another node.

mod faults;
mod invoke;
mod lease;
mod migrate;
mod sampler;
mod transport;

use crate::component::{Action, ComponentLogic, InstanceId, InstanceInfo, Outbox};
use crate::fault::LivenessEvent;
use ps_net::{Network, NodeId};
use ps_planner::HierMemo;
use ps_sim::{CpuModel, Engine, FaultKind, Percentiles, SimTime, Summary};
use ps_spec::{Behavior, ResolvedBindings, ServiceSpec};
use ps_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use transport::{Envelope, Kind};

/// Events driving the world. A message in flight is owned by exactly one
/// pending event, which carries its envelope from hop to hop.
enum Event {
    /// A message is ready to enter hop `env.hop` of its route.
    Hop { env: Box<Envelope> },
    /// A message arrived at its destination node (CPU not yet charged).
    Deliver { env: Box<Envelope> },
    /// CPU service for a delivered message completed; run the handler.
    Process { env: Box<Envelope> },
    /// A component timer fired.
    Timer { instance: InstanceId, tag: u64 },
    /// Instance start callback.
    Start { instance: InstanceId },
    /// The timeout armed for attempt `attempt` of request `req` elapsed.
    RequestTimeout { req: u64, attempt: u32 },
    /// A crashed instance's last-renewed lease ran out: the failure is
    /// now *detected* and enters the liveness stream.
    LeaseExpire { instance: InstanceId },
    /// An injected fault from an installed [`ps_sim::FaultPlan`] fires.
    Fault { kind: FaultKind },
}

struct InstanceSlot {
    info: InstanceInfo,
    behavior: Behavior,
    logic: Option<Box<dyn ComponentLogic>>,
    /// Messages addressed here are re-sent to the forwarding target
    /// (set after a migration).
    forward: Option<InstanceId>,
    /// A retired instance drops everything addressed to it.
    retired: bool,
    /// When the instance's lease was granted (its start time): it renews
    /// every heartbeat after that while its host is up.
    lease_granted: SimTime,
    /// The registered spec a deploy created the instance under; `None`
    /// for an instance installed outside a deploy.
    deployed_under: Option<Arc<ServiceSpec>>,
}

/// Mutable world state (separated from the engine so event handlers can
/// borrow both): what every concern reads, then one struct per concern.
struct State {
    net: Network,
    cpus: Vec<CpuModel>,
    instances: Vec<InstanceSlot>,
    metrics: BTreeMap<String, (Summary, Percentiles)>,
    /// Detected-but-undrained liveness events (lease expiries, restarts,
    /// link transitions).
    liveness: Vec<LivenessEvent>,
    /// The serving memo over `net`: the one route table of every epoch
    /// (message routes, transfer times, plans), the plan cache and the
    /// hierarchical planner's shortlists ([`World::memo`]).
    memo: HierMemo,
    transport: transport::Transport,
    invoke: invoke::Invoke,
    lease: lease::Leases,
    faults: faults::Faults,
    /// Aggregate time-series sampling (see [`World::enable_sampler`]).
    sampler: Option<sampler::SamplerState>,
    /// Advanced whenever an instance is created or retired (see
    /// [`World::live_stamp`]).
    live_stamp: u64,
}

/// The simulated runtime.
pub struct World {
    engine: Engine<Event>,
    state: State,
}

impl World {
    /// Builds a world over a network: one [`ps_sim::LinkModel`] per link
    /// direction and one [`CpuModel`] per node.
    pub fn new(net: Network) -> Self {
        let cpus = net
            .nodes()
            .iter()
            .map(|n| CpuModel::new(n.cpu_speed))
            .collect();
        World {
            engine: Engine::new(),
            state: State {
                transport: transport::Transport::new(&net),
                faults: faults::Faults::new(&net),
                net,
                cpus,
                instances: Vec::new(),
                metrics: BTreeMap::new(),
                liveness: Vec::new(),
                memo: HierMemo::new(),
                invoke: Default::default(),
                lease: Default::default(),
                sampler: None,
                live_stamp: 0,
            },
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Installs a tracer on the world (and its engine). Message traffic,
    /// forwards, drops, and request `invoke` spans flow into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer);
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.engine.tracer()
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.state.net
    }

    /// Instantiates a component on a node. Linkages are wired later via
    /// [`wire`](Self::wire); `on_start` fires at `start_at` (schedule the
    /// deployment engine computed).
    pub fn instantiate(
        &mut self,
        component: impl Into<String>,
        node: NodeId,
        factors: ResolvedBindings,
        behavior: Behavior,
        logic: Box<dyn ComponentLogic>,
        start_at: SimTime,
    ) -> InstanceId {
        let id = InstanceId(self.state.instances.len() as u32);
        // An instance placed on a crashed (undetected) host is born dead:
        // it never processes, exactly like the host it landed on.
        let host_down = !self.node_is_up(node);
        self.state.instances.push(InstanceSlot {
            info: InstanceInfo {
                id,
                component: component.into(),
                node,
                factors,
                linkages: Vec::new(),
            },
            behavior,
            logic: Some(logic),
            forward: None,
            retired: host_down,
            lease_granted: start_at,
            deployed_under: None,
        });
        self.state.live_set_changed();
        self.engine
            .schedule_at(start_at, Event::Start { instance: id });
        id
    }

    /// Records the registered spec a deploy created `instance` under:
    /// only that registration's deploys attach to it from then on. The
    /// deploy calls it right after the instantiation, whose new
    /// live-set stamp no one has read yet.
    pub(crate) fn set_deployed_under(&mut self, instance: InstanceId, spec: &Arc<ServiceSpec>) {
        self.state.instances[instance.0 as usize].deployed_under = Some(Arc::clone(spec));
    }

    /// Wires `instance`'s required linkages to provider instances.
    pub fn wire(&mut self, instance: InstanceId, linkages: Vec<InstanceId>) {
        self.state.instances[instance.0 as usize].info.linkages = linkages;
    }

    /// Info for an instance.
    pub fn instance(&self, id: InstanceId) -> &InstanceInfo {
        &self.state.instances[id.0 as usize].info
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.state.instances.len()
    }

    /// Whether any instance of `component` (whatever its configuration)
    /// runs on `node` — the node wrapper then already holds its code, so
    /// a further instantiation ships no blueprint.
    pub fn code_present(&self, component: &str, node: NodeId) -> bool {
        self.state
            .instances
            .iter()
            .any(|s| s.info.component == component && s.info.node == node)
    }

    /// Finds the first *live* instance of `component` on `node` with
    /// matching factors (used by the deployment engine to reuse
    /// replicas); retired instances never match.
    pub fn find_instance(
        &self,
        component: &str,
        node: NodeId,
        factors: &ResolvedBindings,
    ) -> Option<InstanceId> {
        self.state
            .instances
            .iter()
            .find(|s| {
                !s.retired
                    && s.info.component == component
                    && s.info.node == node
                    && &s.info.factors == factors
            })
            .map(|s| s.info.id)
    }

    /// The live instances a deploy of the service registered as `spec`
    /// may attach to, in instance order: those a deploy created under
    /// that very registration (by `Arc` identity), and those installed
    /// outside any deploy.
    pub(crate) fn attachable<'a>(
        &'a self,
        spec: &'a Arc<ServiceSpec>,
    ) -> impl Iterator<Item = &'a InstanceInfo> + 'a {
        self.state
            .instances
            .iter()
            .filter(move |s| {
                !s.retired
                    && s.deployed_under
                        .as_ref()
                        .is_none_or(|under| Arc::ptr_eq(under, spec))
            })
            .map(|s| &s.info)
    }

    /// The live-set stamp: a counter advanced whenever an instance is
    /// created or retired. Equal stamps mean an unchanged set of live
    /// instances; the stamp keys the plan cache of this world's own
    /// memo only, so no other world's stamps need to differ.
    pub(crate) fn live_stamp(&self) -> u64 {
        self.state.live_stamp
    }

    /// Mutable access to an instance's logic, for test assertions and
    /// state inspection between runs.
    pub fn logic_mut(&mut self, id: InstanceId) -> &mut dyn ComponentLogic {
        self.state.instances[id.0 as usize]
            .logic
            .as_mut()
            .expect("logic present outside dispatch")
            .as_mut()
    }

    /// Summary of a metric the components measured (empty summary when
    /// never recorded).
    pub fn metric(&self, name: &str) -> Summary {
        self.state
            .metrics
            .get(name)
            .map(|(s, _)| s.clone())
            .unwrap_or_default()
    }

    /// Percentile sampler for a metric.
    pub fn metric_percentiles(&mut self, name: &str) -> Option<&mut Percentiles> {
        self.state.metrics.get_mut(name).map(|(_, p)| p)
    }

    /// Retires an instance: its [`ComponentLogic::on_retire`] hook runs
    /// first (so stateful components can flush upstream), then subsequent
    /// and in-flight messages to it are dropped. Used when a re-plan
    /// removes a component.
    pub fn retire(&mut self, instance: InstanceId) {
        if self.state.instances[instance.0 as usize].retired {
            return;
        }
        // Renewals the instance sent up to now still happened.
        let now = self.now();
        lease::charge_renewals(&mut self.state, now);
        dispatch(&mut self.engine, &mut self.state, instance, |logic, out| {
            logic.on_retire(out)
        });
        let slot = &mut self.state.instances[instance.0 as usize];
        slot.retired = true;
        slot.forward = None;
        self.state.live_set_changed();
    }

    /// Whether an instance has been retired (or migrated away).
    pub fn is_retired(&self, instance: InstanceId) -> bool {
        self.state.instances[instance.0 as usize].retired
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.engine.run(&mut self.state, |engine, state, event| {
            state.handle(engine, event)
        });
    }

    /// Runs until `deadline` (events after it stay queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.engine
            .run_until(deadline, &mut self.state, |engine, state, event| {
                state.handle(engine, event)
            });
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }
}

impl State {
    /// Advances the live-set stamp. Called where an instance is created
    /// ([`World::instantiate`], which a migration goes through) or
    /// retired ([`World::retire`], a crash).
    fn live_set_changed(&mut self) {
        self.live_stamp += 1;
    }

    /// Event dispatch: the one match over [`Event`], one concern's
    /// handler per arm.
    fn handle(&mut self, engine: &mut Engine<Event>, event: Event) {
        if self.sampler.is_some() {
            sampler::maybe_sample(engine, self);
        }
        match event {
            Event::Start { instance } => {
                // Crashed (or already-retired) instances never start.
                if self.instances[instance.0 as usize].retired {
                    return;
                }
                dispatch(engine, self, instance, |logic, out| logic.on_start(out));
            }
            Event::Timer { instance, tag } => {
                // Timers die with their instance.
                if self.instances[instance.0 as usize].retired {
                    return;
                }
                dispatch(engine, self, instance, |logic, out| {
                    logic.on_timer(out, tag)
                });
            }
            Event::Hop { env } => transport::hop(engine, self, env),
            Event::Deliver { env } => transport::deliver(engine, self, env),
            Event::Process { env } => transport::process(engine, self, *env),
            Event::RequestTimeout { req, attempt } => {
                invoke::handle_request_timeout(engine, self, req, attempt);
            }
            Event::LeaseExpire { instance } => lease::expire(engine, self, instance),
            Event::Fault { kind } => faults::apply_fault(engine, self, kind),
        }
    }
}

/// Runs a handler on an instance's logic and applies the emitted actions.
fn dispatch(
    engine: &mut Engine<Event>,
    state: &mut State,
    instance: InstanceId,
    f: impl FnOnce(&mut dyn ComponentLogic, &mut Outbox),
) {
    let mut logic = state.instances[instance.0 as usize]
        .logic
        .take()
        // ps-lint: allow(P001): reentrancy guard — a second dispatch into
        // the same instance while its logic is checked out is a scheduler
        // bug; proceeding would drop the inner handler's actions silently.
        .expect("no reentrant dispatch");
    let linkage_count = state.instances[instance.0 as usize].info.linkages.len();
    let mut out = Outbox::new(
        engine.now(),
        linkage_count,
        instance,
        engine.tracer().clone(),
    );
    f(logic.as_mut(), &mut out);
    state.instances[instance.0 as usize].logic = Some(logic);
    apply_actions(engine, state, instance, out.actions);
}

fn apply_actions(
    engine: &mut Engine<Event>,
    state: &mut State,
    instance: InstanceId,
    actions: Vec<Action>,
) {
    for action in actions {
        match action {
            Action::Reply { to, payload } => invoke::reply(engine, state, instance, to.0, payload),
            Action::Call {
                linkage,
                payload,
                token,
            } => invoke::call(engine, state, instance, linkage, payload, token),
            Action::Notify { linkage, payload } => {
                let provider = state.instances[instance.0 as usize].info.linkages[linkage];
                transport::send(engine, state, instance, provider, Kind::Notify, payload);
            }
            Action::NotifyInstance { to, payload } => {
                transport::send(engine, state, instance, to, Kind::Notify, payload);
            }
            Action::Timer { delay, tag } => {
                engine.schedule(delay, Event::Timer { instance, tag });
            }
            Action::Measure { metric, value } => {
                // The `String` key is built the first time a metric is
                // seen, not once per completed operation.
                let record = |entry: &mut (Summary, Percentiles)| {
                    entry.0.record(value);
                    entry.1.record(value);
                };
                match state.metrics.get_mut(metric) {
                    Some(entry) => record(entry),
                    None => record(
                        state
                            .metrics
                            .entry(metric.to_owned())
                            .or_insert_with(|| (Summary::new(), Percentiles::new())),
                    ),
                }
            }
        }
    }
}

/// Components and small worlds the concern modules' tests share.
#[cfg(test)]
mod fixtures {
    use super::World;
    use crate::component::{ComponentLogic, InstanceId, Outbox, Payload, RequestHandle};
    use crate::fault::InvokeError;
    use ps_net::{Credentials, Network};
    use ps_sim::{SimDuration, SimTime};
    use ps_spec::{Behavior, ResolvedBindings};

    /// Echo server: replies with the request payload.
    pub(super) struct Echo;
    impl ComponentLogic for Echo {
        fn on_request(&mut self, out: &mut Outbox, req: RequestHandle, payload: &Payload) {
            out.reply(req, payload.clone());
        }
        fn on_response(&mut self, _out: &mut Outbox, _token: u64, _payload: &Payload) {}
    }

    /// Client: sends one request at start, records the round-trip.
    pub(super) struct OneShot {
        sent_at: SimTime,
    }
    impl OneShot {
        pub(super) fn new() -> Self {
            OneShot {
                sent_at: SimTime::ZERO,
            }
        }
    }
    impl ComponentLogic for OneShot {
        fn on_start(&mut self, out: &mut Outbox) {
            self.sent_at = out.now();
            out.call(0, Payload::new((), 1_000_000), 1);
        }
        fn on_request(&mut self, _out: &mut Outbox, _req: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, out: &mut Outbox, token: u64, _p: &Payload) {
            assert_eq!(token, 1);
            let rtt = (out.now() - self.sent_at).as_millis_f64();
            out.measure("rtt_ms", rtt);
        }
    }

    /// Sends one request at start; records replies, errors, and dead
    /// peers it is told about.
    #[derive(Default)]
    pub(super) struct Probe {
        pub(super) replies: u64,
        pub(super) errors: Vec<InvokeError>,
        pub(super) dead_peers: Vec<InstanceId>,
    }
    impl ComponentLogic for Probe {
        fn on_start(&mut self, out: &mut Outbox) {
            if out.linkage_count() > 0 {
                out.call(0, Payload::new((), 1_000), 7);
            }
        }
        fn on_request(&mut self, _o: &mut Outbox, _r: RequestHandle, _p: &Payload) {}
        fn on_response(&mut self, _o: &mut Outbox, token: u64, _p: &Payload) {
            assert_eq!(token, 7);
            self.replies += 1;
        }
        fn on_error(&mut self, _o: &mut Outbox, _token: u64, error: InvokeError) {
            self.errors.push(error);
        }
        fn on_peers_retired(&mut self, _o: &mut Outbox, peers: &[InstanceId]) {
            self.dead_peers.extend_from_slice(peers);
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// Node a and node b, one link between them.
    pub(super) fn two_nodes(latency_ms: u64, bw: f64) -> World {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let b = net.add_node("b", "t", 1.0, Credentials::new());
        let latency = SimDuration::from_millis(latency_ms);
        net.add_link(a, b, latency, bw, Credentials::new());
        World::new(net)
    }

    /// Places `logic` on node `node` of a fixture world, starting now.
    pub(super) fn place(
        world: &mut World,
        node: u32,
        logic: Box<dyn ComponentLogic>,
        behavior: Behavior,
    ) -> InstanceId {
        let (node, now) = (ps_net::NodeId(node), world.now());
        world.instantiate("x", node, ResolvedBindings::new(), behavior, logic, now)
    }

    /// An echo server on b and a client on a wired to it; returns the
    /// world, the client and the server.
    pub(super) fn client_server(
        latency_ms: u64,
        bw: f64,
        client: Box<dyn ComponentLogic>,
    ) -> (World, InstanceId, InstanceId) {
        let mut world = two_nodes(latency_ms, bw);
        let server = place(&mut world, 1, Box::new(Echo), Behavior::new());
        let client = place(&mut world, 0, client, Behavior::new());
        world.wire(client, vec![server]);
        (world, client, server)
    }

    /// [`client_server`] over a 100 Mb/s link with a [`Probe`] client.
    pub(super) fn probe_world(latency_ms: u64) -> (World, InstanceId, InstanceId) {
        client_server(latency_ms, 1e8, Box::new(Probe::default()))
    }

    /// A [`Probe`]'s record.
    pub(super) fn probe(world: &mut World, id: InstanceId) -> &Probe {
        world
            .logic_mut(id)
            .as_any()
            .and_then(|any| any.downcast_ref::<Probe>())
            .expect("a probe")
    }
}
