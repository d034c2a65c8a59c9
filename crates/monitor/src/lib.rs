//! # ps-monitor — network monitoring and adaptive re-planning
//!
//! The paper's first limitation (Section 6) is its static-network
//! assumption; the proposed remedy is integration with a monitoring
//! system in the style of Remos: obtain node/link state through a
//! uniform query API, tell the planner when conditions change, and let
//! it decide whether an incremental or complete redeployment is called
//! for. This crate implements that loop over the simulated network:
//!
//! * [`NetworkMonitor`] — snapshot-diffing change detection;
//! * [`affected_edges`] — which linkages of a deployed plan a set of
//!   changes touches;
//! * [`Replanner`] — revalidates the current plan under the new network
//!   and produces a replacement plan plus the [`PlanDelta`] (components
//!   to add, keep, and retire) when the old one is invalid or has
//!   degraded past 1.25 times the fresh optimum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ps_net::{Link, LinkId, Network, Node, NodeId, PropertyTranslator, ScopedRoutes, Touch};
use ps_planner::{Mapper, Placement, Plan, PlanError, Planner, ServiceRequest};
use ps_sim::{SimDuration, SimTime};
use ps_trace::Tracer;
use std::fmt;
use std::sync::Arc;

/// A detected change in the network.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkChange {
    /// A link's latency changed.
    LinkLatency {
        /// The link.
        link: LinkId,
        /// Previous latency.
        old: SimDuration,
        /// New latency.
        new: SimDuration,
    },
    /// A link's bandwidth changed.
    LinkBandwidth {
        /// The link.
        link: LinkId,
        /// Previous bandwidth (bits/s).
        old: f64,
        /// New bandwidth (bits/s).
        new: f64,
    },
    /// A link's credentials changed (e.g. `Secure` flipped).
    LinkCredentials {
        /// The link.
        link: LinkId,
    },
    /// A node's credentials changed (e.g. its trust rating).
    NodeCredentials {
        /// The node.
        node: NodeId,
    },
    /// A node's CPU speed changed.
    NodeSpeed {
        /// The node.
        node: NodeId,
        /// Previous relative speed.
        old: f64,
        /// New relative speed.
        new: f64,
    },
    /// A node went down (crash detected, e.g. through lease expiry).
    NodeDown {
        /// The node.
        node: NodeId,
    },
    /// A previously-down node came back up.
    NodeUp {
        /// The node.
        node: NodeId,
    },
    /// A link stopped carrying traffic.
    LinkDown {
        /// The link.
        link: LinkId,
    },
    /// A previously-down link came back up.
    LinkUp {
        /// The link.
        link: LinkId,
    },
}

impl fmt::Display for NetworkChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkChange::LinkLatency { link, old, new } => {
                write!(f, "{link}: latency {old} -> {new}")
            }
            NetworkChange::LinkBandwidth { link, old, new } => {
                write!(f, "{link}: bandwidth {old:.0} -> {new:.0} b/s")
            }
            NetworkChange::LinkCredentials { link } => write!(f, "{link}: credentials changed"),
            NetworkChange::NodeCredentials { node } => write!(f, "{node}: credentials changed"),
            NetworkChange::NodeSpeed { node, old, new } => {
                write!(f, "{node}: speed {old} -> {new}")
            }
            NetworkChange::NodeDown { node } => write!(f, "{node}: down"),
            NetworkChange::NodeUp { node } => write!(f, "{node}: up"),
            NetworkChange::LinkDown { link } => write!(f, "{link}: down"),
            NetworkChange::LinkUp { link } => write!(f, "{link}: up"),
        }
    }
}

/// Snapshot-diffing network monitor.
///
/// The baseline is a copy of the network's nodes and links as of the
/// last poll. A poll compares only the elements the network's journal
/// says were touched since ([`Network::touched_since`]), scanning every
/// element only when the journal no longer reaches back that far, and
/// overwrites only the baseline elements that changed.
#[derive(Debug, Clone)]
pub struct NetworkMonitor {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// The network epoch the baseline reflects.
    epoch: u64,
    tracer: Tracer,
}

impl NetworkMonitor {
    /// Starts monitoring from a baseline snapshot.
    pub fn new(baseline: Network) -> Self {
        NetworkMonitor::of(&baseline)
    }

    /// Starts monitoring `net` from its current state, copying its nodes
    /// and links once.
    pub fn of(net: &Network) -> Self {
        NetworkMonitor {
            nodes: net.nodes().to_vec(),
            links: net.links().to_vec(),
            epoch: net.epoch(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; detected changes become `monitor.change`
    /// events (via [`observe_at`](Self::observe_at)) and count into the
    /// registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Diffs `current` against the stored baseline, returning every
    /// change — links by id, then nodes by id — and advancing the
    /// baseline. Elements added since the last poll join the baseline
    /// unreported.
    ///
    /// `current` must be the network the baseline was taken from, or a
    /// descendant of it (a clone mutated further): every mutator bumps
    /// [`Network::epoch`] and journals what it touched, so an unmoved
    /// epoch — with unmoved node and link counts — means nothing
    /// changed, and a moved one names the elements worth comparing.
    /// The same contract [`ps_net::ScopedRoutes`] rows rely on.
    pub fn observe(&mut self, current: &Network) -> Vec<NetworkChange> {
        if current.epoch() == self.epoch
            && current.node_count() == self.nodes.len()
            && current.link_count() == self.links.len()
        {
            return Vec::new();
        }
        let shared_links = self.links.len().min(current.link_count());
        let shared_nodes = self.nodes.len().min(current.node_count());
        let (links, nodes) = match current.touched_since(self.epoch) {
            Some(touched) => {
                let (mut links, mut nodes) = (Vec::new(), Vec::new());
                for touch in touched {
                    match touch {
                        Touch::Link(id) if (id.0 as usize) < shared_links => links.push(id.0),
                        Touch::Node(id) if (id.0 as usize) < shared_nodes => nodes.push(id.0),
                        _ => {}
                    }
                }
                links.sort_unstable();
                links.dedup();
                nodes.sort_unstable();
                nodes.dedup();
                (links, nodes)
            }
            None => (
                (0..shared_links as u32).collect(),
                (0..shared_nodes as u32).collect(),
            ),
        };
        let mut changes = Vec::new();
        for id in links {
            let (old, new) = (&mut self.links[id as usize], current.link(LinkId(id)));
            if *old != *new {
                link_changes(old, new, &mut changes);
                *old = new.clone();
            }
        }
        for id in nodes {
            let (old, new) = (&mut self.nodes[id as usize], current.node(NodeId(id)));
            if *old != *new {
                node_changes(old, new, &mut changes);
                *old = new.clone();
            }
        }
        self.links.truncate(current.link_count());
        self.links
            .extend_from_slice(&current.links()[shared_links..]);
        self.nodes.truncate(current.node_count());
        self.nodes
            .extend_from_slice(&current.nodes()[shared_nodes..]);
        self.epoch = current.epoch();
        changes
    }

    /// Like [`observe`](Self::observe), stamping each detected change as
    /// a `monitor.change` trace event at virtual time `now`. Prefer this
    /// entry point when a tracer is installed (the untimed `observe`
    /// cannot know the simulation clock).
    pub fn observe_at(&mut self, now: SimTime, current: &Network) -> Vec<NetworkChange> {
        let changes = self.observe(current);
        if self.tracer.enabled() && !changes.is_empty() {
            self.tracer.count("monitor.changes", changes.len() as u64);
            for change in &changes {
                let (kind, subject) = match change {
                    NetworkChange::LinkLatency { link, .. } => ("link_latency", link.0 as u64),
                    NetworkChange::LinkBandwidth { link, .. } => ("link_bandwidth", link.0 as u64),
                    NetworkChange::LinkCredentials { link } => ("link_credentials", link.0 as u64),
                    NetworkChange::NodeCredentials { node } => ("node_credentials", node.0 as u64),
                    NetworkChange::NodeSpeed { node, .. } => ("node_speed", node.0 as u64),
                    NetworkChange::NodeDown { node } => ("node_down", node.0 as u64),
                    NetworkChange::NodeUp { node } => ("node_up", node.0 as u64),
                    NetworkChange::LinkDown { link } => ("link_down", link.0 as u64),
                    NetworkChange::LinkUp { link } => ("link_up", link.0 as u64),
                };
                self.tracer.instant(
                    "monitor",
                    "change",
                    now.as_nanos(),
                    vec![("kind", kind.into()), ("subject", subject.into())],
                );
            }
        }
        changes
    }
}

/// The reported differences between two states of one link.
fn link_changes(old: &Link, new: &Link, changes: &mut Vec<NetworkChange>) {
    if old.latency != new.latency {
        changes.push(NetworkChange::LinkLatency {
            link: new.id,
            old: old.latency,
            new: new.latency,
        });
    }
    if old.bandwidth_bps != new.bandwidth_bps {
        changes.push(NetworkChange::LinkBandwidth {
            link: new.id,
            old: old.bandwidth_bps,
            new: new.bandwidth_bps,
        });
    }
    if old.credentials != new.credentials {
        changes.push(NetworkChange::LinkCredentials { link: new.id });
    }
    if old.up != new.up {
        changes.push(if new.up {
            NetworkChange::LinkUp { link: new.id }
        } else {
            NetworkChange::LinkDown { link: new.id }
        });
    }
}

/// The reported differences between two states of one node.
fn node_changes(old: &Node, new: &Node, changes: &mut Vec<NetworkChange>) {
    if old.credentials != new.credentials {
        changes.push(NetworkChange::NodeCredentials { node: new.id });
    }
    if old.cpu_speed != new.cpu_speed {
        changes.push(NetworkChange::NodeSpeed {
            node: new.id,
            old: old.cpu_speed,
            new: new.cpu_speed,
        });
    }
    if old.up != new.up {
        changes.push(if new.up {
            NetworkChange::NodeUp { node: new.id }
        } else {
            NetworkChange::NodeDown { node: new.id }
        });
    }
}

/// Which plan edges a set of changes touches (by link membership of
/// their routes, or by endpoint-node changes).
pub fn affected_edges(plan: &Plan, changes: &[NetworkChange]) -> Vec<usize> {
    let mut hit = Vec::new();
    for (i, edge) in plan.edges.iter().enumerate() {
        let touched = changes.iter().any(|c| match c {
            NetworkChange::LinkLatency { link, .. }
            | NetworkChange::LinkBandwidth { link, .. }
            | NetworkChange::LinkCredentials { link }
            | NetworkChange::LinkDown { link }
            | NetworkChange::LinkUp { link } => edge.route.links.contains(link),
            NetworkChange::NodeCredentials { node }
            | NetworkChange::NodeSpeed { node, .. }
            | NetworkChange::NodeDown { node }
            | NetworkChange::NodeUp { node } => {
                plan.placements[edge.from].node == *node
                    || plan.placements[edge.to].node == *node
                    || edge.route.via.contains(node)
            }
        });
        if touched {
            hit.push(i);
        }
    }
    hit
}

/// The difference between an old and a new plan, at instance
/// granularity.
#[derive(Debug, Clone, Default)]
pub struct PlanDelta {
    /// Instances the new plan adds.
    pub added: Vec<Placement>,
    /// Instances both plans share (component, node, factors equal).
    pub kept: Vec<Placement>,
    /// Instances only the old plan used (candidates for retirement once
    /// their state is reconciled — the coherence layer's job).
    pub removed: Vec<Placement>,
}

/// Computes the delta between two plans.
pub fn plan_delta(old: &Plan, new: &Plan) -> PlanDelta {
    let mut delta = PlanDelta::default();
    let same = |a: &Placement, b: &Placement| {
        a.component == b.component && a.node == b.node && a.factors == b.factors
    };
    for p in &new.placements {
        if old.placements.iter().any(|q| same(p, q)) {
            delta.kept.push(p.clone());
        } else {
            delta.added.push(p.clone());
        }
    }
    for q in &old.placements {
        if !new.placements.iter().any(|p| same(p, q)) {
            delta.removed.push(q.clone());
        }
    }
    delta
}

/// The outcome of a re-planning evaluation.
#[derive(Debug)]
pub enum ReplanDecision {
    /// The current plan is still valid and close enough to optimal.
    Keep,
    /// A better/valid deployment exists.
    Redeploy {
        /// The replacement plan (boxed: a `Plan` is large relative to
        /// the other variants).
        plan: Box<Plan>,
        /// Its difference from the old plan.
        delta: PlanDelta,
    },
    /// The old plan is invalid and no feasible replacement exists.
    Infeasible(PlanError),
}

/// A still-valid plan is replaced when its current objective exceeds the
/// fresh optimum by more than this factor.
const DEGRADATION_FACTOR: f64 = 1.25;

/// Re-planning policy: revalidate, then replace when invalid or degraded.
pub struct Replanner {
    /// The planner used for replacement plans.
    pub planner: Planner,
    /// Tracer receiving `replan.decision` events and `replan.*` counters.
    pub tracer: Tracer,
}

impl Replanner {
    /// Creates a replanner around a configured planner.
    pub fn new(planner: Planner) -> Self {
        Replanner {
            planner,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer (see [`decide`](Self::decide)).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Evaluates `old` under the (possibly changed) network at virtual
    /// time `now` and decides, pricing the fresh optimum with a flat
    /// [`Planner::plan`] and revalidating `old` on routes of its own.
    pub fn evaluate<T: PropertyTranslator + ?Sized>(
        &self,
        now: SimTime,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        old: &Plan,
    ) -> ReplanDecision {
        let mapper = Mapper::new(
            &self.planner.spec,
            net,
            translator,
            request,
            self.planner.config.objective,
            Arc::new(ScopedRoutes::new()),
        );
        self.decide(
            now,
            &mapper,
            old,
            self.planner.plan(net, translator, request),
        )
    }

    /// The decision given the `fresh` optimum for `old`'s request: `old`
    /// is revalidated with `mapper`, which must be built over this
    /// replanner's spec and objective for that request, on the network
    /// and routes the optimum was priced on, so both sides of the
    /// comparison read one network. `old` is kept while valid and within
    /// 1.25 times the optimum. The healer supplies an optimum priced on
    /// the serving path that would redeploy the connection, with a
    /// mapper on the serving memo's rows, so its consult runs no
    /// Dijkstra of its own. With a tracer installed, the decision is
    /// stamped as a `replan` instant at `now` and counted as
    /// `replan.keep` / `replan.redeploy` / `replan.infeasible`.
    pub fn decide(
        &self,
        now: SimTime,
        mapper: &Mapper<'_>,
        old: &Plan,
        fresh: Result<Plan, PlanError>,
    ) -> ReplanDecision {
        debug_assert!(std::ptr::eq(mapper.spec, &*self.planner.spec));
        debug_assert_eq!(mapper.objective, self.planner.config.objective);
        let assignment: Vec<NodeId> = old.placements.iter().map(|p| p.node).collect();
        let still_valid = mapper.evaluate(&old.graph, &assignment);
        let decision = match (still_valid, fresh) {
            (Some(current), Ok(better))
                if current.objective_value <= better.objective_value * DEGRADATION_FACTOR =>
            {
                ReplanDecision::Keep
            }
            (_, Ok(better)) => {
                let delta = plan_delta(old, &better);
                ReplanDecision::Redeploy {
                    plan: Box::new(better),
                    delta,
                }
            }
            (Some(_), Err(_)) => ReplanDecision::Keep,
            (None, Err(e)) => ReplanDecision::Infeasible(e),
        };
        if self.tracer.enabled() {
            let mut fields: ps_trace::Fields = Vec::new();
            let kind = match &decision {
                ReplanDecision::Keep => "keep",
                ReplanDecision::Redeploy { delta, .. } => {
                    fields.push(("added", delta.added.len().into()));
                    fields.push(("kept", delta.kept.len().into()));
                    fields.push(("removed", delta.removed.len().into()));
                    "redeploy"
                }
                ReplanDecision::Infeasible(_) => "infeasible",
            };
            fields.insert(0, ("decision", kind.into()));
            self.tracer.count(
                match &decision {
                    ReplanDecision::Keep => "replan.keep",
                    ReplanDecision::Redeploy { .. } => "replan.redeploy",
                    ReplanDecision::Infeasible(_) => "replan.infeasible",
                },
                1,
            );
            self.tracer
                .instant("monitor", "replan", now.as_nanos(), fields);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_net::Credentials;

    fn two_site_net(wan_latency_ms: u64) -> Network {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new().with("TrustRating", 5i64));
        let b = net.add_node("b", "s2", 1.0, Credentials::new().with("TrustRating", 5i64));
        net.add_link(
            a,
            b,
            SimDuration::from_millis(wan_latency_ms),
            1e7,
            Credentials::new().with("Secure", true),
        );
        net
    }

    #[test]
    fn observe_detects_latency_and_bandwidth_changes() {
        let before = two_site_net(100);
        let mut monitor = NetworkMonitor::new(before);
        let mut after = two_site_net(100);
        after.link_mut(LinkId(0)).latency = SimDuration::from_millis(300);
        after.link_mut(LinkId(0)).bandwidth_bps = 5e6;
        let changes = monitor.observe(&after);
        assert_eq!(changes.len(), 2);
        // Baseline advanced: a second observe is quiet.
        assert!(monitor.observe(&after).is_empty());
    }

    #[test]
    fn observe_detects_credential_changes() {
        let before = two_site_net(100);
        let mut monitor = NetworkMonitor::new(before);
        let mut after = two_site_net(100);
        after
            .node_mut(NodeId(1))
            .credentials
            .set("TrustRating", 1i64);
        after.link_mut(LinkId(0)).credentials.set("Secure", false);
        let changes = monitor.observe(&after);
        assert!(changes.contains(&NetworkChange::NodeCredentials { node: NodeId(1) }));
        assert!(changes.contains(&NetworkChange::LinkCredentials { link: LinkId(0) }));
    }

    #[test]
    fn observe_detects_up_flag_flips() {
        let before = two_site_net(100);
        let mut monitor = NetworkMonitor::new(before);
        let mut after = two_site_net(100);
        after.set_node_up(NodeId(1), false);
        after.set_link_up(LinkId(0), false);
        let changes = monitor.observe(&after);
        assert!(changes.contains(&NetworkChange::NodeDown { node: NodeId(1) }));
        assert!(changes.contains(&NetworkChange::LinkDown { link: LinkId(0) }));
        after.set_node_up(NodeId(1), true);
        after.set_link_up(LinkId(0), true);
        let restored = monitor.observe(&after);
        assert!(restored.contains(&NetworkChange::NodeUp { node: NodeId(1) }));
        assert!(restored.contains(&NetworkChange::LinkUp { link: LinkId(0) }));
    }

    #[test]
    fn same_epoch_poll_reports_nothing_and_keeps_the_baseline() {
        let net = two_site_net(100);
        let mut monitor = NetworkMonitor::of(&net);
        for _ in 0..3 {
            assert!(monitor.observe(&net).is_empty());
        }
        assert_eq!(monitor.epoch, net.epoch());
    }

    /// A bare epoch bump changes nothing to report, and the baseline it
    /// advances to still prices the next real change from the right
    /// starting point.
    #[test]
    fn touch_reports_nothing_but_advances_the_baseline() {
        let mut net = two_site_net(100);
        let mut monitor = NetworkMonitor::of(&net);
        net.touch();
        assert!(monitor.observe(&net).is_empty());
        assert!(monitor.observe(&net).is_empty());
        net.touch();
        net.link_mut(LinkId(0)).latency = SimDuration::from_millis(250);
        net.touch();
        let latency = NetworkChange::LinkLatency {
            link: LinkId(0),
            old: SimDuration::from_millis(100),
            new: SimDuration::from_millis(250),
        };
        assert_eq!(monitor.observe(&net), [latency]);
        assert!(monitor.observe(&net).is_empty());
    }

    /// The diff the monitor computed before it kept a journal-driven
    /// baseline: scan every shared element against a full clone of the
    /// network, then re-baseline on a clone.
    fn clone_and_scan(baseline: &mut Network, current: &Network) -> Vec<NetworkChange> {
        if current.epoch() == baseline.epoch()
            && current.node_count() == baseline.node_count()
            && current.link_count() == baseline.link_count()
        {
            return Vec::new();
        }
        let mut changes = Vec::new();
        for (old, new) in baseline.links().iter().zip(current.links()) {
            link_changes(old, new, &mut changes);
        }
        for (old, new) in baseline.nodes().iter().zip(current.nodes()) {
            node_changes(old, new, &mut changes);
        }
        *baseline = current.clone();
        changes
    }

    /// Over seeded mutation sequences of every kind — some polled after
    /// each step, some skipped across hundreds of epochs, past the end
    /// of the network's journal — `observe` returns exactly what the
    /// clone-and-scan diff returns.
    #[test]
    fn observe_matches_clone_and_scan_over_random_mutations() {
        use ps_sim::Rng;
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed).derive("monitor-equivalence");
            let mut net = Network::new();
            for i in 0..6 {
                net.add_node(
                    format!("n{i}"),
                    format!("s{}", i % 2),
                    1.0,
                    Credentials::new(),
                );
            }
            for i in 0..8u32 {
                let (a, b) = (NodeId(i % 6), NodeId((i * 5 + 1) % 6));
                let b = if a == b { NodeId((b.0 + 1) % 6) } else { b };
                net.add_link(a, b, SimDuration::from_millis(5), 1e7, Credentials::new());
            }
            let mut monitor = NetworkMonitor::of(&net);
            let mut reference = net.clone();
            for step in 0..60 {
                let burst = match rng.next_below(4) {
                    0 => 300,
                    1 => 1,
                    _ => 1 + rng.next_below(6),
                };
                for _ in 0..burst {
                    let link = LinkId(rng.next_below(net.link_count() as u64) as u32);
                    let node = NodeId(rng.next_below(net.node_count() as u64) as u32);
                    match rng.next_below(9) {
                        0 => net.set_link_up(link, rng.next_below(2) == 0),
                        1 => net.set_node_up(node, rng.next_below(2) == 0),
                        2 => {
                            net.link_mut(link).latency =
                                SimDuration::from_millis(1 + rng.next_below(4))
                        }
                        3 => net.link_mut(link).bandwidth_bps = 1e6 * rng.next_below(3) as f64,
                        4 => {
                            let secure = rng.next_below(2) == 0;
                            net.link_mut(link).credentials.set("Secure", secure);
                        }
                        5 => {
                            let trust = rng.next_below(3) as i64;
                            net.node_mut(node).credentials.set("TrustRating", trust);
                        }
                        6 => net.node_mut(node).cpu_speed = 1.0 + rng.next_below(2) as f64,
                        7 => net.touch(),
                        _ if rng.next_below(20) == 0 => {
                            let added =
                                net.add_node(format!("x{step}"), "s0", 1.0, Credentials::new());
                            net.add_link(
                                node,
                                added,
                                SimDuration::from_millis(2),
                                1e7,
                                Credentials::new(),
                            );
                        }
                        _ => {
                            // Touched, but written back unchanged.
                            let latency = net.link(link).latency;
                            net.link_mut(link).latency = latency;
                        }
                    }
                }
                assert_eq!(
                    monitor.observe(&net),
                    clone_and_scan(&mut reference, &net),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    /// A skipped poll must not blunt the next one: after a same-epoch
    /// poll, a change of every kind is still reported, exactly once.
    #[test]
    fn every_change_kind_is_seen_after_a_skipped_poll() {
        let mut net = two_site_net(100);
        let mut monitor = NetworkMonitor::of(&net);
        let (node, link) = (NodeId(1), LinkId(0));
        let mut poll = |net: &Network| {
            let changes = monitor.observe(net);
            assert!(monitor.observe(net).is_empty(), "reported twice");
            changes
        };
        assert!(poll(&net).is_empty());

        net.link_mut(link).latency = SimDuration::from_millis(300);
        assert_eq!(
            poll(&net),
            [NetworkChange::LinkLatency {
                link,
                old: SimDuration::from_millis(100),
                new: SimDuration::from_millis(300),
            }]
        );
        net.link_mut(link).bandwidth_bps = 5e6;
        let bandwidth = NetworkChange::LinkBandwidth {
            link,
            old: 1e7,
            new: 5e6,
        };
        assert_eq!(poll(&net), [bandwidth]);
        net.link_mut(link).credentials.set("Secure", false);
        assert_eq!(poll(&net), [NetworkChange::LinkCredentials { link }]);
        net.set_link_up(link, false);
        assert_eq!(poll(&net), [NetworkChange::LinkDown { link }]);
        net.set_link_up(link, true);
        assert_eq!(poll(&net), [NetworkChange::LinkUp { link }]);
        net.node_mut(node).credentials.set("TrustRating", 1i64);
        assert_eq!(poll(&net), [NetworkChange::NodeCredentials { node }]);
        net.node_mut(node).cpu_speed = 2.0;
        let speed = NetworkChange::NodeSpeed {
            node,
            old: 1.0,
            new: 2.0,
        };
        assert_eq!(poll(&net), [speed]);
        net.set_node_up(node, false);
        assert_eq!(poll(&net), [NetworkChange::NodeDown { node }]);
        net.set_node_up(node, true);
        assert_eq!(poll(&net), [NetworkChange::NodeUp { node }]);
    }
}
