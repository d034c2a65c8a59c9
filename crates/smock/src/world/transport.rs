//! Message transport: envelopes cross their route hop by hop, queue for
//! the destination's CPU, and reach the handler, or are forwarded or
//! dropped at a retired instance.

use super::{dispatch, faults, invoke, Event, State, World};
use crate::component::{InstanceId, Payload, RequestHandle};
use ps_net::{shortest_route, Credentials, LinkId, Network, NodeId, ScopedRoutes};
use ps_sim::{Engine, LinkModel, SimDuration};
use ps_trace::Fields;
use std::collections::HashMap;
use std::rc::Rc;

/// `(link, direction)` per hop of a route; direction 0 = a->b, 1 = b->a.
/// Shared between the memo and every envelope travelling the route.
type Hops = Rc<[(LinkId, u8)]>;

/// Directed hop sequence memo per (from, to) node pair, read off the
/// world's route rows.
type RouteMemo = HashMap<(u32, u32), Option<Hops>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    /// Expecting a reply correlated by the request id.
    Request { req: u64 },
    /// Reply to request `req`.
    Response { req: u64 },
    /// One-way.
    Notify,
}

pub(super) struct Envelope {
    kind: Kind,
    from: InstanceId,
    to: InstanceId,
    hops: Hops,
    hop: usize,
    payload: Payload,
}

pub(super) struct Transport {
    /// Full-duplex links: one shaping queue per direction.
    pub(super) links: Vec<[LinkModel; 2]>,
    /// Shortest-path rows per sending node, carried across every network
    /// change that leaves them exact ([`refresh_routes`]).
    routes: ScopedRoutes,
    /// Dijkstra rows earlier epochs' `routes` ran.
    route_rows_retired: usize,
    /// Memoized directed hop sequences per (from, to) node pair; re-read
    /// off `routes` after every network change.
    route_cache: RouteMemo,
    /// The empty route every same-node delivery shares.
    no_hops: Hops,
    messages_sent: u64,
}

impl Transport {
    pub(super) fn new(net: &Network) -> Self {
        let links = net
            .links()
            .iter()
            .map(|l| {
                [
                    LinkModel::new(l.latency, l.bandwidth_bps),
                    LinkModel::new(l.latency, l.bandwidth_bps),
                ]
            })
            .collect();
        Transport {
            links,
            routes: ScopedRoutes::new(net),
            route_rows_retired: 0,
            route_cache: HashMap::new(),
            no_hops: Rc::new([]),
            messages_sent: 0,
        }
    }
}

impl World {
    /// Simulated time to move `bytes` from `from` to `to` over the
    /// current shortest route ([`ps_net::RouteMetrics::transfer_time`]),
    /// zero when local or unreachable. Runs its own Dijkstra: the
    /// reference for one-off questions (migration) and for checking the
    /// generic server's memoized answers, not for a serving path.
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: u64) -> SimDuration {
        shortest_route(&self.state.net, from, to).map_or(SimDuration::ZERO, |route| {
            route.metrics().transfer_time(bytes)
        })
    }

    /// Dijkstra rows the world's message routing has run since it was
    /// built: one per sending node per epoch whose changes the node's
    /// row did not survive (deterministic, so tests pin it as a count).
    pub fn route_rows_built(&self) -> usize {
        let transport = &self.state.transport;
        transport.route_rows_retired + transport.routes.rows_built()
    }

    /// Total messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.state.transport.messages_sent
    }

    /// Changes a link's conditions mid-run (the dynamic environment of
    /// Section 6): both the routing graph and the traffic-shaping models
    /// pick up the new latency and bandwidth; transmissions already in
    /// progress complete under the old parameters.
    pub fn update_link(&mut self, link: LinkId, latency: SimDuration, bandwidth_bps: f64) {
        let l = self.state.net.link_mut(link);
        l.latency = latency;
        l.bandwidth_bps = bandwidth_bps;
        for direction in &mut self.state.transport.links[link.0 as usize] {
            direction.latency = latency;
            direction.bandwidth_bps = bandwidth_bps;
        }
        refresh_routes(&mut self.state);
    }

    /// Changes a link's credentials mid-run (e.g. a secure leased line
    /// cut over to the public internet).
    pub fn update_link_credentials(&mut self, link: LinkId, credentials: Credentials) {
        self.state.net.link_mut(link).credentials = credentials;
        // Security credentials participate in the routing metric.
        refresh_routes(&mut self.state);
    }

    /// Changes a node's credentials mid-run (e.g. a trust revocation the
    /// monitoring layer reports).
    pub fn update_node_credentials(&mut self, node: NodeId, credentials: Credentials) {
        self.state.net.node_mut(node).credentials = credentials;
        refresh_routes(&mut self.state);
    }
}

/// `Event::Hop`: the message enters hop `env.hop` of its route.
pub(super) fn hop(engine: &mut Engine<Event>, state: &mut State, mut env: Box<Envelope>) {
    let now = engine.now();
    let (link, dir) = env.hops[env.hop];
    if let Some(counter) = faults::hop_fate(state, link) {
        let fields = vec![
            ("from", env.from.0.into()),
            ("to", env.to.0.into()),
            ("link", link.0.into()),
        ];
        dropped(engine, counter, fields);
        return;
    }
    let arrival =
        state.transport.links[link.0 as usize][dir as usize].transmit(now, env.payload.wire_bytes);
    env.hop += 1;
    let next = if env.hop == env.hops.len() {
        Event::Deliver { env }
    } else {
        Event::Hop { env }
    };
    engine.schedule_at(arrival, next);
}

/// `Event::Deliver`: the message queues for its destination's CPU.
pub(super) fn deliver(engine: &mut Engine<Event>, state: &mut State, env: Box<Envelope>) {
    let now = engine.now();
    let to = env.to;
    if state.instances[to.0 as usize].retired {
        redirect(engine, state, *env, true);
        return;
    }
    // Requests and notifies charge the component's per-request CPU;
    // responses are charged to the caller implicitly via its own
    // follow-on work.
    let cpu_ms = match env.kind {
        Kind::Request { .. } | Kind::Notify => {
            state.instances[to.0 as usize].behavior.cpu_per_request_ms
        }
        Kind::Response { .. } => 0.0,
    };
    let node = state.instances[to.0 as usize].info.node;
    let done = if cpu_ms > 0.0 {
        state.cpus[node.0 as usize].execute(now, cpu_ms)
    } else {
        now
    };
    engine.schedule_at(done, Event::Process { env });
}

/// `Event::Process`: CPU service is done; the handler runs.
pub(super) fn process(engine: &mut Engine<Event>, state: &mut State, env: Envelope) {
    let to = env.to;
    // The target may have migrated (or crashed) between this message's
    // CPU scheduling and now: forward or drop, exactly as at delivery
    // time.
    if state.instances[to.0 as usize].retired {
        redirect(engine, state, env, false);
        return;
    }
    match env.kind {
        Kind::Request { req } => {
            dispatch(engine, state, to, |logic, out| {
                logic.on_request(out, RequestHandle(req), &env.payload)
            });
        }
        Kind::Response { req } => invoke::complete(engine, state, req, to, &env.payload),
        Kind::Notify => {
            dispatch(engine, state, to, |logic, out| {
                logic.on_notify(out, &env.payload)
            });
        }
    }
}

/// Enqueues a message from one instance to another; local (same node)
/// deliveries skip the network entirely.
pub(super) fn send(
    engine: &mut Engine<Event>,
    state: &mut State,
    from: InstanceId,
    to: InstanceId,
    kind: Kind,
    payload: Payload,
) {
    state.transport.messages_sent += 1;
    let from_node = state.instances[from.0 as usize].info.node;
    let to_node = state.instances[to.0 as usize].info.node;
    let hops = if from_node == to_node {
        Some(state.transport.no_hops.clone())
    } else {
        hops_between(state, from_node, to_node)
    };
    let Some(hops) = hops else {
        // Unreachable destination: message dropped.
        let fields = vec![("from", from.0.into()), ("to", to.0.into())];
        dropped(engine, "world.drops", fields);
        return;
    };
    engine.tracer().count("world.messages", 1);
    if !hops.is_empty() {
        engine.tracer().count("world.hops", hops.len() as u64);
    }
    let env = Box::new(Envelope {
        kind,
        from,
        to,
        hops,
        hop: 0,
        payload,
    });
    // Local delivery costs a small constant (in-process invocation).
    if from_node == to_node {
        engine.schedule(SimDuration::from_micros(20), Event::Deliver { env });
    } else {
        engine.schedule(SimDuration::ZERO, Event::Hop { env });
    }
}

/// A message reached a retired instance: re-send it from there to the
/// forwarding target a migration left (the *old* instance's node is
/// intact, so the forwarding hop is charged from it), or drop it. Only a
/// forward caught at delivery is traced as an instant.
fn redirect(engine: &mut Engine<Event>, state: &mut State, env: Envelope, at_delivery: bool) {
    let (from, to) = (env.from.0.into(), env.to.0.into());
    match state.instances[env.to.0 as usize].forward {
        Some(target) => {
            let tracer = engine.tracer();
            tracer.count("world.forwards", 1);
            if at_delivery {
                let fields = vec![("from", from), ("to", to), ("target", target.0.into())];
                tracer.instant("smock.world", "forward", engine.now().as_nanos(), fields);
            }
            send(engine, state, env.to, target, env.kind, env.payload);
        }
        None => dropped(engine, "world.drops", vec![("from", from), ("to", to)]),
    }
}

/// A message dies: counted under `counter`, traced as a `drop`.
fn dropped(engine: &Engine<Event>, counter: &str, fields: Fields) {
    let tracer = engine.tracer();
    tracer.count(counter, 1);
    tracer.instant("smock.world", "drop", engine.now().as_nanos(), fields);
}

/// Moves the world's routes to the network's current epoch: the one
/// step every network mutation ends with. Rows the change provably left
/// exact are carried ([`ScopedRoutes::carried`]); the pair memo is
/// re-read off them on next use.
pub(super) fn refresh_routes(state: &mut State) {
    let transport = &mut state.transport;
    let stale = std::mem::replace(&mut transport.routes, ScopedRoutes::new(&state.net));
    transport.route_rows_retired += stale.rows_built();
    transport.routes = stale.carried(&state.net);
    transport.route_cache.clear();
}

/// The directed hops of the shortest route from `from` to `to`, `None`
/// when unreachable: one memo lookup, walking `from`'s route row on a
/// miss. Message sends and lease-renewal charging both route here.
pub(super) fn hops_between(state: &mut State, from: NodeId, to: NodeId) -> Option<Hops> {
    let net = &state.net;
    let Transport {
        routes,
        route_cache,
        ..
    } = &mut state.transport;
    route_cache
        .entry((from.0, to.0))
        .or_insert_with(|| {
            routes.route(net, from, to).map(|route| {
                // Annotate each link with its traversal direction so
                // each direction of a full-duplex link queues
                // independently.
                let mut at = from;
                route
                    .links
                    .iter()
                    .map(|&l| {
                        let link = net.link(l);
                        let dir = if link.a == at { 0u8 } else { 1u8 };
                        // ps-lint: allow(P001): Dijkstra emits connected
                        // link sequences; silently mis-walking a broken
                        // route would deliver traffic to the wrong node,
                        // which is worse than crashing.
                        at = link.other(at).expect("route links are connected");
                        (l, dir)
                    })
                    .collect()
            })
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{client_server, place, two_nodes, Echo, OneShot};
    use ps_spec::Behavior;

    #[test]
    fn request_response_round_trip_times_are_physical() {
        // 1 MB over 8 Mb/s + 400 ms each way: 1s + 0.4s, both directions.
        let (mut world, _, _) = client_server(400, 8e6, Box::new(OneShot::new()));
        world.run();
        let m = world.metric("rtt_ms");
        assert_eq!(m.count(), 1);
        assert!((m.mean() - 2800.0).abs() < 1.0, "rtt {}", m.mean());
    }

    #[test]
    fn cpu_cost_is_charged_for_requests() {
        // Both instances on one node: only local delivery + CPU.
        let mut world = two_nodes(400, 8e6);
        let behavior = Behavior::new().cpu_per_request_ms(5.0);
        let server = place(&mut world, 0, Box::new(Echo), behavior);
        let client = place(&mut world, 0, Box::new(OneShot::new()), Behavior::new());
        world.wire(client, vec![server]);
        world.run();
        let m = world.metric("rtt_ms");
        assert!(m.mean() >= 5.0, "rtt {} must include 5ms CPU", m.mean());
        assert!(m.mean() < 6.0);
    }

    #[test]
    fn concurrent_transfers_queue_on_the_link() {
        // Two clients sharing one 8 Mb/s link: second transfer queues.
        let mut world = two_nodes(0, 8e6);
        let server = place(&mut world, 1, Box::new(Echo), Behavior::new());
        for _ in 0..2 {
            let c = place(&mut world, 0, Box::new(OneShot::new()), Behavior::new());
            world.wire(c, vec![server]);
        }
        world.run();
        let mut p = world
            .metric_percentiles("rtt_ms")
            .expect("measured")
            .clone();
        // First ~2s (1s each way), second queued behind: ~3s.
        let fast = p.quantile(0.0).expect("two samples");
        let slow = p.quantile(1.0).expect("two samples");
        assert!((fast - 2000.0).abs() < 50.0, "fast {fast}");
        assert!((slow - 3000.0).abs() < 50.0, "slow {slow}");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut world, _, _) = client_server(100, 1e7, Box::new(OneShot::new()));
            world.run();
            (world.metric("rtt_ms").mean(), world.events_processed())
        };
        assert_eq!(run(), run());
    }
}
