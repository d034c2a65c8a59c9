//! Routing: shortest paths through the network graph.
//!
//! Component linkages whose endpoints are not directly connected traverse
//! a multi-hop route; the planner charges every link on the route and
//! folds every traversed environment into its property-modification pass.
//! Routes are computed with Dijkstra's algorithm over the lexicographic
//! metric *(insecure-link count, latency, hop count)*: traffic stays
//! inside administrative sites when it can (the paper's emulation routes
//! each inter-site flow over its dedicated WAN link rather than
//! transiting a third site), and among equally-trusted routes the lowest
//! latency wins, with hop count as a deterministic tie-break.

use crate::graph::{LinkId, Network, NodeId};
use ps_sim::SimDuration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A route between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Links traversed, in order (empty when `from == to`).
    pub links: Vec<LinkId>,
    /// Intermediate nodes traversed (excludes the endpoints).
    pub via: Vec<NodeId>,
    /// Total one-way propagation latency.
    pub latency: SimDuration,
    /// Bottleneck bandwidth along the route (bits/second;
    /// `f64::INFINITY` for the empty route).
    pub bottleneck_bps: f64,
}

impl Route {
    /// The empty (same-node) route.
    pub fn local(node: NodeId) -> Self {
        Route {
            from: node,
            to: node,
            links: Vec::new(),
            via: Vec::new(),
            latency: SimDuration::ZERO,
            bottleneck_bps: f64::INFINITY,
        }
    }

    /// Whether both endpoints are the same node.
    pub fn is_local(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The route's cost figures without its hop lists.
    pub fn metrics(&self) -> RouteMetrics {
        RouteMetrics {
            latency: self.latency,
            bottleneck_bps: self.bottleneck_bps,
            hops: self.links.len() as u32,
        }
    }
}

/// What a cost model reads off a [`Route`] — latency, bottleneck and
/// locality — without the per-hop link and node lists. The routing
/// tables answer it by walking a predecessor row, allocating nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteMetrics {
    /// Total one-way propagation latency.
    pub latency: SimDuration,
    /// Bottleneck bandwidth along the route (bits/second;
    /// `f64::INFINITY` for the empty route).
    pub bottleneck_bps: f64,
    /// Number of hops (zero when both endpoints are the same node).
    pub hops: u32,
}

impl RouteMetrics {
    /// Whether both endpoints are the same node.
    pub fn is_local(&self) -> bool {
        self.hops == 0
    }

    /// Seconds the bottleneck link needs to put `bytes` on the wire
    /// (zero on the empty route, whose bandwidth is infinite).
    fn serialization_secs(&self, bytes: f64) -> f64 {
        if self.bottleneck_bps.is_finite() {
            bytes * 8.0 / self.bottleneck_bps
        } else {
            0.0
        }
    }

    /// Round-trip milliseconds of one request moving `bytes`
    /// (request + response) over the route: twice the propagation
    /// latency plus the serialization time at the bottleneck.
    pub fn rtt_ms(&self, bytes: f64) -> f64 {
        2.0 * self.latency.as_millis_f64() + self.serialization_secs(bytes) * 1000.0
    }

    /// Virtual time to move `bytes` one way over the route: propagation
    /// latency plus serialization at the bottleneck, zero when local.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(self.serialization_secs(bytes as f64))
    }

    /// [`transfer_time`](Self::transfer_time) in the planner's unit,
    /// fractional milliseconds, *not* rounded to the simulator's
    /// nanosecond tick: deployment cost feeds the objective's
    /// tie-break term, whose bits a rounding would perturb.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.latency.as_millis_f64() + self.serialization_secs(bytes as f64) * 1000.0
    }
}

/// Lexicographic route cost: *(insecure hops, latency ns, hops)*.
pub(crate) type RouteCost = (u32, u64, u32);

/// Sentinel cost for unreachable nodes.
pub(crate) const UNREACHED: RouteCost = (u32::MAX, u64::MAX, u32::MAX);

/// Runs Dijkstra from `from` over the lexicographic metric, filling
/// `dist` and `prev` (both sized `net.node_count()`). When `stop_at` is
/// set, the search exits early once that destination is finalized —
/// every entry already finalized at that point (including `stop_at`
/// itself) is identical to what the full run would produce, because a
/// popped node's cost can never improve afterwards.
pub(crate) fn dijkstra_tree(
    net: &Network,
    from: NodeId,
    stop_at: Option<NodeId>,
    dist: &mut [RouteCost],
    prev: &mut [Option<(NodeId, LinkId)>],
) {
    dist.fill(UNREACHED);
    prev.fill(None);
    if !net.node(from).up {
        return;
    }
    let mut heap = BinaryHeap::new();
    dist[from.0 as usize] = (0, 0, 0);
    heap.push(Reverse(((0u32, 0u64, 0u32), from)));

    while let Some(Reverse((cost, node))) = heap.pop() {
        if cost > dist[node.0 as usize] {
            continue;
        }
        if stop_at == Some(node) {
            break;
        }
        let (wan, d, hops) = cost;
        for &(next, link_id) in net.neighbours(node) {
            let link = net.link(link_id);
            if !link.up || !net.node(next).up {
                continue;
            }
            let nw = wan + u32::from(!net.link_secure(link_id));
            let nd = d.saturating_add(link.latency.as_nanos());
            let nh = hops + 1;
            if (nw, nd, nh) < dist[next.0 as usize] {
                dist[next.0 as usize] = (nw, nd, nh);
                prev[next.0 as usize] = Some((node, link_id));
                heap.push(Reverse(((nw, nd, nh), next)));
            }
        }
    }
}

/// Reconstructs the route to `to` from a Dijkstra tree rooted at `from`.
pub(crate) fn reconstruct(
    net: &Network,
    from: NodeId,
    to: NodeId,
    dist: &[RouteCost],
    prev: &[Option<(NodeId, LinkId)>],
) -> Option<Route> {
    if from == to {
        return Some(Route::local(from));
    }
    if dist[to.0 as usize].1 == u64::MAX {
        return None;
    }
    let mut links = Vec::new();
    let mut via = Vec::new();
    let mut cursor = to;
    while cursor != from {
        // A reached node always has a parent entry; if the invariant
        // were ever violated, degrade to "no route" rather than panic
        // mid-heal (ps-lint P001).
        let (parent, link) = prev[cursor.0 as usize]?;
        links.push(link);
        if parent != from {
            via.push(parent);
        }
        cursor = parent;
    }
    links.reverse();
    via.reverse();

    let bottleneck_bps = links
        .iter()
        .map(|&l| net.link(l).bandwidth_bps)
        .fold(f64::INFINITY, f64::min);

    Some(Route {
        from,
        to,
        links,
        via,
        latency: SimDuration::from_nanos(dist[to.0 as usize].1),
        bottleneck_bps,
    })
}

/// [`RouteMetrics`] of the tree path to `to` in a Dijkstra tree rooted
/// at `from` — the figures [`reconstruct`] would report, read off the
/// predecessor chain without materializing it.
pub(crate) fn tree_metrics(
    net: &Network,
    from: NodeId,
    to: NodeId,
    dist: &[RouteCost],
    prev: &[Option<(NodeId, LinkId)>],
) -> Option<RouteMetrics> {
    if from == to {
        return Some(Route::local(from).metrics());
    }
    let (_, nanos, hops) = dist[to.0 as usize];
    if nanos == u64::MAX {
        return None;
    }
    let mut bottleneck_bps = f64::INFINITY;
    let mut cursor = to;
    while cursor != from {
        let (parent, link) = prev[cursor.0 as usize]?;
        bottleneck_bps = bottleneck_bps.min(net.link(link).bandwidth_bps);
        cursor = parent;
    }
    Some(RouteMetrics {
        latency: SimDuration::from_nanos(nanos),
        bottleneck_bps,
        hops,
    })
}

/// Intermediate nodes (excluding endpoints) of the tree path to `to`,
/// in travel order — [`Route::via`] without the rest of the route.
pub(crate) fn tree_via(
    from: NodeId,
    to: NodeId,
    dist: &[RouteCost],
    prev: &[Option<(NodeId, LinkId)>],
) -> Option<Vec<NodeId>> {
    if from != to && dist[to.0 as usize].1 == u64::MAX {
        return None;
    }
    let mut via = Vec::new();
    let mut cursor = to;
    while cursor != from {
        let (parent, _) = prev[cursor.0 as usize]?;
        if parent != from {
            via.push(parent);
        }
        cursor = parent;
    }
    via.reverse();
    Some(via)
}

/// Computes the minimum-latency route from `from` to `to`, or `None` when
/// unreachable. Ties are broken by hop count, then by node index, so the
/// result is deterministic.
pub fn shortest_route(net: &Network, from: NodeId, to: NodeId) -> Option<Route> {
    if from == to {
        return Some(Route::local(from));
    }
    let n = net.node_count();
    let mut dist = vec![UNREACHED; n];
    let mut prev = vec![None; n];
    dijkstra_tree(net, from, Some(to), &mut dist, &mut prev);
    reconstruct(net, from, to, &dist, &prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Credentials;

    fn secure() -> Credentials {
        Credentials::new().with("Secure", true)
    }

    /// a --1ms-- b --1ms-- c, plus a direct a--c at 10ms (all secure, so
    /// the latency term decides).
    fn triangle() -> Network {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let b = net.add_node("b", "s", 1.0, Credentials::new());
        let c = net.add_node("c", "s", 1.0, Credentials::new());
        net.add_link(a, b, SimDuration::from_millis(1), 1e8, secure());
        net.add_link(b, c, SimDuration::from_millis(1), 1e6, secure());
        net.add_link(a, c, SimDuration::from_millis(10), 1e8, secure());
        net
    }

    #[test]
    fn picks_lower_latency_multi_hop() {
        let net = triangle();
        let route = shortest_route(&net, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(route.hops(), 2);
        assert_eq!(route.latency, SimDuration::from_millis(2));
        assert_eq!(route.via, vec![NodeId(1)]);
        assert_eq!(route.bottleneck_bps, 1e6);
    }

    #[test]
    fn transfer_is_latency_plus_serialization_at_the_bottleneck() {
        let net = triangle();
        let route = shortest_route(&net, NodeId(0), NodeId(2))
            .unwrap()
            .metrics();
        // 2 ms of propagation + 125 kB over the 1 Mb/s hop = 1 s.
        assert_eq!(route.transfer_time(125_000), SimDuration::from_millis(1002));
        assert_eq!(route.transfer_ms(125_000), 1002.0);
        assert_eq!(route.rtt_ms(125_000.0), 1004.0);
        let local = Route::local(NodeId(0)).metrics();
        assert_eq!(local.transfer_time(1 << 20), SimDuration::ZERO);
        assert_eq!(local.transfer_ms(1 << 20), 0.0);
    }

    #[test]
    fn local_route_is_empty() {
        let net = triangle();
        let route = shortest_route(&net, NodeId(1), NodeId(1)).unwrap();
        assert!(route.is_local());
        assert_eq!(route.latency, SimDuration::ZERO);
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = triangle();
        let d = net.add_node("d", "s", 1.0, Credentials::new());
        assert!(shortest_route(&net, NodeId(0), d).is_none());
    }

    #[test]
    fn hop_count_breaks_latency_ties() {
        let mut net = Network::new();
        let a = net.add_node("a", "s", 1.0, Credentials::new());
        let b = net.add_node("b", "s", 1.0, Credentials::new());
        let c = net.add_node("c", "s", 1.0, Credentials::new());
        // Two equal-latency options: direct 2ms vs 1ms+1ms via b.
        net.add_link(a, b, SimDuration::from_millis(1), 1e8, secure());
        net.add_link(b, c, SimDuration::from_millis(1), 1e8, secure());
        net.add_link(a, c, SimDuration::from_millis(2), 1e8, secure());
        let route = shortest_route(&net, a, c).unwrap();
        assert_eq!(route.hops(), 1);
    }

    #[test]
    fn fewer_insecure_hops_beat_lower_latency() {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s2", 1.0, Credentials::new());
        let c = net.add_node("c", "s3", 1.0, Credentials::new());
        // Direct insecure 400ms WAN link vs two insecure 100ms+200ms hops.
        net.add_link(a, c, SimDuration::from_millis(400), 8e6, Credentials::new());
        net.add_link(a, b, SimDuration::from_millis(100), 5e7, Credentials::new());
        net.add_link(b, c, SimDuration::from_millis(200), 2e7, Credentials::new());
        let route = shortest_route(&net, a, c).unwrap();
        assert_eq!(route.hops(), 1);
        assert_eq!(route.latency, SimDuration::from_millis(400));
    }

    #[test]
    fn down_link_is_routed_around() {
        let mut net = triangle();
        // Best a→c is a-b-c (2ms); kill a-b and the direct 10ms link wins.
        net.set_link_up(LinkId(0), false);
        let route = shortest_route(&net, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(route.hops(), 1);
        assert_eq!(route.latency, SimDuration::from_millis(10));
        net.set_link_up(LinkId(0), true);
        let restored = shortest_route(&net, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(restored.hops(), 2);
    }

    #[test]
    fn down_node_is_not_transited_or_reached() {
        let mut net = triangle();
        net.set_node_up(NodeId(1), false);
        let route = shortest_route(&net, NodeId(0), NodeId(2)).unwrap();
        assert!(route.via.is_empty(), "must not transit the down node");
        assert!(shortest_route(&net, NodeId(0), NodeId(1)).is_none());
        assert!(shortest_route(&net, NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn up_flags_bump_epoch_only_on_change() {
        let mut net = triangle();
        let e0 = net.epoch();
        net.set_node_up(NodeId(1), true); // already up: no-op
        assert_eq!(net.epoch(), e0);
        net.set_node_up(NodeId(1), false);
        assert_eq!(net.epoch(), e0 + 1);
        net.set_link_up(LinkId(0), false);
        assert_eq!(net.epoch(), e0 + 2);
    }
}
