//! Message transport: envelopes cross their route hop by hop, queue for
//! the destination's CPU, and reach the handler, or are forwarded or
//! dropped at a retired instance. Routes are read off the world's
//! serving memo, the one route table every connect, heal pass and
//! message of an epoch shares.

use super::{dispatch, faults, invoke, Event, State, World};
use crate::component::{InstanceId, Payload, RequestHandle};
use ps_net::{Credentials, LinkId, Network, NodeId, ScopedRoutes};
use ps_planner::HierMemo;
use ps_sim::{Engine, LinkModel, SimDuration};
use ps_trace::Fields;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// `(link, direction)` per hop of a route; direction 0 = a->b, 1 = b->a.
/// Shared between the memo and every envelope travelling the route.
type Hops = Rc<[(LinkId, u8)]>;

/// Directed hop sequence memo per (from, to) node pair, read off the
/// memo's route rows.
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
    /// Memoized directed hop sequences per (from, to) node pair of the
    /// network epoch `route_epoch`; emptied on the first send of a later
    /// epoch and re-read off the memo's rows.
    route_cache: RouteMemo,
    route_epoch: u64,
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
            route_cache: HashMap::new(),
            route_epoch: net.epoch(),
            no_hops: Rc::new([]),
            messages_sent: 0,
        }
    }
}

impl World {
    /// The world's serving memo ([`HierMemo`]): its route rows answer
    /// every route question of an epoch — message hops, transfer times,
    /// plans and their revalidation — and it holds the plan cache and
    /// the hierarchical planner's shortlists. One per world, so a server
    /// that serves several worlds never answers one from another's.
    pub(crate) fn memo(&self) -> &HierMemo {
        &self.state.memo
    }

    /// The memo's route rows: each row answers for the network's
    /// current epoch, carried across the changes since its last use when
    /// they left it exact and re-run otherwise.
    pub fn routes(&self) -> Arc<ScopedRoutes> {
        self.state.memo.scoped_routes(&self.state.net)
    }

    /// Simulated time to move `bytes` from `from` to `to` over the
    /// current shortest route ([`ps_net::RouteMetrics::transfer_time`]),
    /// zero when local or unreachable, answered from the memo's rows:
    /// `from`'s row is built on first use and serves every later
    /// question of the epoch. [`crate::server::transfer_time`] is the
    /// memo-free reference.
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: u64) -> SimDuration {
        self.routes()
            .transfer_time(&self.state.net, from, to, bytes)
    }

    /// Dijkstra rows the memo has run since the world was built, for
    /// every asker and every epoch (deterministic, so tests pin it as a
    /// count: a warm connect must leave it unchanged).
    pub fn route_rows_built(&self) -> usize {
        self.state.memo.route_rows_built()
    }

    /// Times the memo built its routing view rather than patching it
    /// (published as `net.routing_view.builds`): one over a run whose
    /// network changes are faults and link updates.
    pub fn routing_view_builds(&self) -> usize {
        self.state.memo.routing_view_builds()
    }

    /// Number of plans the memo's plan cache holds (test/diagnostic
    /// aid).
    pub fn cached_plan_count(&self) -> usize {
        self.state.memo.cached_plans()
    }

    /// Segment shortlists the memo has computed since the world was
    /// built (its shortlist misses, every connect and heal pass counted):
    /// deterministic, so tests and `ps-bench scale` pin it as a count.
    pub fn shortlists_computed(&self) -> u64 {
        self.state.memo.misses()
    }

    /// Segment shortlists the memo holds, live and stale (test aid: the
    /// table grows with regions, components and signatures, never with
    /// the live instances).
    pub fn shortlist_entries(&self) -> usize {
        self.state.memo.total_entries()
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
    }

    /// Changes a link's credentials mid-run (e.g. a secure leased line
    /// cut over to the public internet).
    pub fn update_link_credentials(&mut self, link: LinkId, credentials: Credentials) {
        self.state.net.link_mut(link).credentials = credentials;
    }

    /// Changes a node's credentials mid-run (e.g. a trust revocation the
    /// monitoring layer reports).
    pub fn update_node_credentials(&mut self, node: NodeId, credentials: Credentials) {
        self.state.net.node_mut(node).credentials = credentials;
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

/// The directed hops of the shortest route from `from` to `to`, `None`
/// when unreachable: one pair-memo lookup, walking `from`'s row of the
/// world's memo on a miss. Message sends and lease-renewal charging both
/// route here.
pub(super) fn hops_between(state: &mut State, from: NodeId, to: NodeId) -> Option<Hops> {
    let (net, memo, transport) = (&state.net, &state.memo, &mut state.transport);
    if transport.route_epoch != net.epoch() {
        transport.route_cache.clear();
        transport.route_epoch = net.epoch();
    }
    transport
        .route_cache
        .entry((from.0, to.0))
        .or_insert_with(|| {
            memo.scoped_routes(net).route(net, from, to).map(|route| {
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
    use super::super::World;
    use super::hops_between;
    use ps_net::{shortest_route, Credentials, LinkId, Network, NodeId};
    use ps_sim::SimDuration;
    use ps_spec::Behavior;

    /// Asserts the hops a send between every ordered pair of nodes takes
    /// are `shortest_route`'s links on the world's network as it is now,
    /// and returns the links from node 0 to node 3.
    fn assert_sends_take_the_shortest_routes(world: &mut World, context: &str) -> Vec<LinkId> {
        let nodes: Vec<NodeId> = world.network().node_ids().collect();
        for &from in &nodes {
            for &to in nodes.iter().filter(|&&to| to != from) {
                let hops = hops_between(&mut world.state, from, to);
                let links = hops.map(|hops| hops.iter().map(|&(l, _)| l).collect::<Vec<_>>());
                let reference = shortest_route(world.network(), from, to).map(|r| r.links);
                assert_eq!(links, reference, "{context}: {from} -> {to}");
            }
        }
        shortest_route(world.network(), NodeId(0), NodeId(3)).map_or(Vec::new(), |r| r.links)
    }

    /// Routes are read lazily off the memo and the pair memo empties on
    /// the first send of a new epoch: after every kind of network change
    /// the world makes, each send takes the route a fresh Dijkstra finds
    /// on the changed network, whatever it sent along before.
    #[test]
    fn every_network_change_reroutes_the_next_send() {
        // a - b - d at 10 ms a hop, a - c - d at 15 ms a hop.
        let mut net = Network::new();
        let secure = || Credentials::new().with("Secure", true);
        let [a, b, c, d] =
            ["a", "b", "c", "d"].map(|n| net.add_node(n, n, 1.0, Credentials::new()));
        let ms = SimDuration::from_millis;
        let ab = net.add_link(a, b, ms(10), 1e8, secure());
        let bd = net.add_link(b, d, ms(10), 1e8, secure());
        let ac = net.add_link(a, c, ms(15), 1e8, secure());
        let cd = net.add_link(c, d, ms(15), 1e8, secure());
        let mut world = World::new(net);
        let (via_b, via_c) = (vec![ab, bd], vec![ac, cd]);
        assert_eq!(
            assert_sends_take_the_shortest_routes(&mut world, "cold"),
            via_b
        );

        type Change = fn(&mut World, [LinkId; 4]);
        let changes: [(&str, Change, &Vec<LinkId>); 7] = [
            ("quarantine b", |w, _| w.quarantine_node(NodeId(1)), &via_c),
            ("restart b", |w, _| w.restart_node(NodeId(1)), &via_b),
            (
                "a-b down",
                |w, [ab, ..]| w.set_link_state(ab, false),
                &via_c,
            ),
            ("a-b up", |w, [ab, ..]| w.set_link_state(ab, true), &via_b),
            (
                "a-b slowed",
                |w, [ab, ..]| w.update_link(ab, SimDuration::from_millis(40), 1e8),
                &via_c,
            ),
            (
                "c-d insecure",
                |w, [.., cd]| w.update_link_credentials(cd, Credentials::new()),
                &via_b,
            ),
            (
                "b re-credentialed",
                |w, _| w.update_node_credentials(NodeId(1), Credentials::new().with("x", 1i64)),
                &via_b,
            ),
        ];
        for (what, change, expected) in changes {
            let epoch = world.network().epoch();
            change(&mut world, [ab, bd, ac, cd]);
            assert!(world.network().epoch() > epoch, "{what} moves the epoch");
            let route = assert_sends_take_the_shortest_routes(&mut world, what);
            assert_eq!(&route, expected, "{what}");
        }
    }

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
