//! The compact routing view every Dijkstra row runs on.
//!
//! A relaxation needs four figures of an edge — the neighbour, whether
//! the link and the neighbour are up, the link's latency and whether it
//! is insecure — and the full [`Network`] keeps them in its fat `Node`
//! and `Link` structs, the insecure bit behind a string lookup of the
//! link's `Secure` credential. [`RoutingView`] keeps just those figures:
//! a CSR adjacency in exactly [`Network::neighbours`] order (the carry
//! certificate's tie rule depends on adjacency position), per link its
//! endpoints, latency in nanoseconds, insecure bit and up flag, and per
//! node its up flag.
//!
//! A view is bound to the epoch it reflects. [`RoutingView::sync`] brings
//! it to the network's epoch by patching what the journal
//! ([`Network::touched_since`]) names: a touched node refreshes its up
//! flag, a touched link its terms. A link past the view's link count (an
//! `add_link`), an added node, or a journal that no longer reaches back
//! rebuilds the view.

use crate::graph::{LinkId, Network, NodeId, Touch};

/// The most nodes a view holds: a route's hop and insecure-hop counts
/// and a node id each fit in 21 bits of [`heap_key`], next to the 64
/// bits of latency.
pub(crate) const MAX_NODES: usize = 1 << 21;

/// Dijkstra's heap key of a node reached at `cost`: `(insecure hops,
/// latency ns, hops, node id)` packed into one integer that orders
/// exactly as the tuple does, since each field is below its width
/// (hop counts of a shortest path are below the node count, which is at
/// most [`MAX_NODES`]).
pub(crate) fn heap_key((wan, nanos, hops): (u32, u64, u32), node: NodeId) -> u128 {
    (u128::from(wan) << 107)
        | (u128::from(nanos) << 43)
        | (u128::from(hops) << 21)
        | u128::from(node.0)
}

/// The cost and node [`heap_key`] packed.
pub(crate) fn unpack(key: u128) -> ((u32, u64, u32), NodeId) {
    const FIELD: u128 = (1 << 21) - 1;
    (
        (
            (key >> 107) as u32,
            (key >> 43) as u64,
            ((key >> 21) & FIELD) as u32,
        ),
        NodeId((key & FIELD) as u32),
    )
}

/// What a relaxation reads of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkTerms {
    /// One endpoint, as in [`crate::Link`].
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way latency in nanoseconds.
    pub nanos: u64,
    /// Whether the link's `Secure` credential is false.
    pub insecure: bool,
    /// Whether the link carries traffic.
    pub up: bool,
}

impl LinkTerms {
    fn of(net: &Network, id: LinkId) -> Self {
        let link = net.link(id);
        LinkTerms {
            a: link.a,
            b: link.b,
            nanos: link.latency.as_nanos(),
            insecure: !net.link_secure(id),
            up: link.up,
        }
    }
}

/// One adjacency entry: the neighbour, the link, and a copy of the
/// link's terms, so a relaxation reads one entry and the neighbour's up
/// flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Neighbour {
    pub node: NodeId,
    pub link: LinkId,
    pub nanos: u64,
    pub insecure: bool,
    pub up: bool,
}

impl Neighbour {
    fn of(node: NodeId, link: LinkId, terms: &LinkTerms) -> Self {
        Neighbour {
            node,
            link,
            nanos: terms.nanos,
            insecure: terms.insecure,
            up: terms.up,
        }
    }
}

/// See the module documentation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoutingView {
    /// The network epoch the view reflects.
    epoch: u64,
    /// `adjacency[offsets[n]..offsets[n + 1]]` is node `n`'s list in
    /// [`Network::neighbours`] order.
    offsets: Vec<u32>,
    adjacency: Vec<Neighbour>,
    /// Per link: its terms, and its index in the adjacency of its `a`
    /// and its `b` endpoint.
    links: Vec<LinkTerms>,
    at: Vec<[u32; 2]>,
    node_up: Vec<bool>,
}

impl RoutingView {
    /// The view of `net` as it stands.
    pub fn of(net: &Network) -> Self {
        assert!(
            net.node_count() <= MAX_NODES,
            "a routing view holds at most {MAX_NODES} nodes"
        );
        let links: Vec<LinkTerms> = (0..net.link_count() as u32)
            .map(|l| LinkTerms::of(net, LinkId(l)))
            .collect();
        let mut offsets = Vec::with_capacity(net.node_count() + 1);
        let mut adjacency = Vec::with_capacity(2 * net.link_count());
        let mut at = vec![[0; 2]; net.link_count()];
        offsets.push(0);
        for node in net.node_ids() {
            for &(next, link) in net.neighbours(node) {
                let terms = &links[link.0 as usize];
                at[link.0 as usize][usize::from(terms.a != node)] = adjacency.len() as u32;
                adjacency.push(Neighbour::of(next, link, terms));
            }
            offsets.push(adjacency.len() as u32);
        }
        RoutingView {
            epoch: net.epoch(),
            offsets,
            adjacency,
            links,
            at,
            node_up: net.nodes().iter().map(|node| node.up).collect(),
        }
    }

    /// Brings the view to `net`'s epoch, patching what the journal names
    /// since the view's own epoch; `true` when it had to be rebuilt.
    pub fn sync(&mut self, net: &Network) -> bool {
        if self.epoch == net.epoch() {
            return false;
        }
        let patched = net.touched_since(self.epoch).is_some_and(|touches| {
            for touch in touches {
                match touch {
                    Touch::Node(id) => self.node_up[id.0 as usize] = net.node(id).up,
                    Touch::Link(id) if (id.0 as usize) < self.links.len() => {
                        self.patch_link(net, id);
                    }
                    Touch::Link(_) | Touch::Structure => return false,
                    Touch::Nothing => {}
                }
            }
            true
        });
        if patched {
            self.epoch = net.epoch();
        } else {
            *self = RoutingView::of(net);
        }
        !patched
    }

    /// Refreshes `link`'s terms and its two adjacency entries.
    fn patch_link(&mut self, net: &Network, link: LinkId) {
        let terms = LinkTerms::of(net, link);
        let [at_a, at_b] = self.at[link.0 as usize];
        self.adjacency[at_a as usize] = Neighbour::of(terms.b, link, &terms);
        self.adjacency[at_b as usize] = Neighbour::of(terms.a, link, &terms);
        self.links[link.0 as usize] = terms;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_up.len()
    }

    /// Whether `node` is up.
    pub fn up(&self, node: NodeId) -> bool {
        self.node_up[node.0 as usize]
    }

    /// `node`'s adjacency entries, in [`Network::neighbours`] order.
    pub fn neighbours(&self, node: NodeId) -> &[Neighbour] {
        let (start, end) = (
            self.offsets[node.0 as usize],
            self.offsets[node.0 as usize + 1],
        );
        &self.adjacency[start as usize..end as usize]
    }

    /// The terms of `link`.
    pub fn link(&self, link: LinkId) -> &LinkTerms {
        &self.links[link.0 as usize]
    }

    /// The adjacency index of `link` in its endpoint `node`'s list:
    /// within one node's list, adjacency order.
    pub fn position(&self, node: NodeId, link: LinkId) -> u32 {
        let side = usize::from(self.links[link.0 as usize].a != node);
        self.at[link.0 as usize][side]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Credentials;
    use crate::path::{RouteCost, UNREACHED};
    use crate::route_table::ScopedRoutes;
    use crate::RouteMetrics;
    use ps_sim::{Rng, SimDuration};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    type Pred = Option<(NodeId, LinkId)>;

    /// The reference: Dijkstra over the full [`Network`], reading the
    /// fat structs and the `Secure` credential, in the pop and
    /// relaxation order the view's run must reproduce.
    fn reference_row(net: &Network, from: NodeId) -> (Vec<RouteCost>, Vec<Pred>) {
        let n = net.node_count();
        let (mut dist, mut prev) = (vec![UNREACHED; n], vec![None; n]);
        if !net.node(from).up {
            return (dist, prev);
        }
        let mut heap = BinaryHeap::new();
        dist[from.0 as usize] = (0, 0, 0);
        heap.push(Reverse(((0u32, 0u64, 0u32), from)));
        while let Some(Reverse((cost, node))) = heap.pop() {
            if cost > dist[node.0 as usize] {
                continue;
            }
            let (wan, d, hops) = cost;
            for &(next, link_id) in net.neighbours(node) {
                let link = net.link(link_id);
                if !link.up || !net.node(next).up {
                    continue;
                }
                let offer = (
                    wan + u32::from(!net.link_secure(link_id)),
                    d.saturating_add(link.latency.as_nanos()),
                    hops + 1,
                );
                if offer < dist[next.0 as usize] {
                    dist[next.0 as usize] = offer;
                    prev[next.0 as usize] = Some((node, link_id));
                    heap.push(Reverse((offer, next)));
                }
            }
        }
        (dist, prev)
    }

    /// The reference metrics: latency and hops off the cost, the
    /// bottleneck by a walk of the predecessor chain.
    fn reference_metrics(
        net: &Network,
        from: NodeId,
        to: NodeId,
        dist: &[RouteCost],
        prev: &[Pred],
    ) -> Option<RouteMetrics> {
        let (_, nanos, hops) = dist[to.0 as usize];
        if from != to && nanos == u64::MAX {
            return None;
        }
        let mut bottleneck_bps = f64::INFINITY;
        let mut cursor = to;
        while cursor != from {
            let (parent, link) = prev[cursor.0 as usize].expect("a reached node has a parent");
            bottleneck_bps = bottleneck_bps.min(net.link(link).bandwidth_bps);
            cursor = parent;
        }
        Some(RouteMetrics {
            latency: SimDuration::from_nanos(if from == to { 0 } else { nanos }),
            bottleneck_bps,
            hops: if from == to { 0 } else { hops },
        })
    }

    /// A link of 1–2 ms (equal-cost routes abound), one of three
    /// bandwidths and, two times in three, secure.
    fn random_link(rng: &mut Rng, net: &mut Network, a: NodeId, b: NodeId) {
        let latency = SimDuration::from_millis(1 + rng.next_below(2));
        let bandwidth = 1e6 * (1 + rng.next_below(3)) as f64;
        let secure = Credentials::new().with("Secure", rng.next_below(3) != 0);
        net.add_link(a, b, latency, bandwidth, secure);
    }

    /// 5–11 nodes on a random spanning tree plus as many extra links,
    /// half of them parallel to an existing link with its cost.
    fn random_graph(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        let n = 5 + rng.next_below(7);
        for i in 0..n {
            net.add_node(format!("n{i}"), "s", 1.0, Credentials::new());
        }
        for i in 1..n {
            let parent = NodeId(rng.next_below(i) as u32);
            random_link(rng, &mut net, parent, NodeId(i as u32));
        }
        for _ in 0..n {
            let link = net.link(LinkId(rng.next_below(net.link_count() as u64) as u32));
            if rng.next_below(2) == 0 {
                let (a, b, latency, credentials) =
                    (link.a, link.b, link.latency, link.credentials.clone());
                net.add_link(a, b, latency, 2e6, credentials);
            } else {
                let a = rng.next_below(n);
                let b = (a + 1 + rng.next_below(n - 1)) % n;
                random_link(rng, &mut net, NodeId(a as u32), NodeId(b as u32));
            }
        }
        net
    }

    /// One random mutation, of every kind a network has.
    fn mutate(rng: &mut Rng, net: &mut Network) {
        let node = NodeId(rng.next_below(net.node_count() as u64) as u32);
        let link = LinkId(rng.next_below(net.link_count() as u64) as u32);
        match rng.next_below(11) {
            0 => net.set_node_up(node, !net.node(node).up),
            1 => net.set_link_up(link, !net.link(link).up),
            2 => {
                let up = !net.node(node).up;
                net.node_mut(node).up = up;
            }
            3 => {
                net.node_mut(node).credentials.set("TrustRating", 3i64);
            }
            4 => net.link_mut(link).latency = SimDuration::from_millis(1 + rng.next_below(2)),
            5 => net.link_mut(link).bandwidth_bps = 1e6 * (1 + rng.next_below(4)) as f64,
            6 => {
                let secure = !net.link_secure(link);
                net.link_mut(link).credentials.set("Secure", secure);
            }
            7 => {
                let up = !net.link(link).up;
                net.link_mut(link).up = up;
            }
            8 => {
                let (a, b) = (net.link(link).a, net.link(link).b);
                random_link(rng, net, a, b);
            }
            9 => {
                let added = net.add_node("added", "s", 1.0, Credentials::new());
                if rng.next_below(2) == 0 {
                    random_link(rng, net, node, added);
                }
            }
            _ => net.touch(),
        }
    }

    /// Asserts `routes`' rows of `sources` are the reference's — `dist`,
    /// `prev` and every pair's metrics, bottleneck included — and that
    /// its view is the view of `net` as it stands.
    fn assert_reference(routes: &ScopedRoutes, net: &Network, sources: &[NodeId], context: &str) {
        for &from in sources {
            let row = routes.row_snapshot(net, from);
            let (dist, prev) = reference_row(net, from);
            assert_eq!(row.dist, dist, "{context}: dist of {from}");
            assert_eq!(row.prev, prev, "{context}: prev of {from}");
            for to in net.node_ids() {
                let expected = reference_metrics(net, from, to, &dist, &prev);
                assert_eq!(
                    row.metrics[to.0 as usize], expected,
                    "{context}: metrics {from}->{to}"
                );
            }
            assert_eq!(row.view, RoutingView::of(net), "{context}: the view");
        }
    }

    /// Rows run and carried on the patched view equal the reference on
    /// random graphs with parallel equal-cost links, under random runs
    /// of every mutation — added links and nodes included, and runs
    /// longer than the journal between two reads.
    #[test]
    fn rows_on_the_patched_view_equal_the_reference() {
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed).derive("routing-view");
            let mut net = random_graph(&mut rng);
            let routes = ScopedRoutes::new();
            let all: Vec<NodeId> = net.node_ids().collect();
            assert_reference(&routes, &net, &all, &format!("seed {seed} fresh"));
            for round in 0..30 {
                let changes = match round % 10 {
                    9 => 300,
                    _ => 1 + rng.next_below(4),
                };
                for _ in 0..changes {
                    mutate(&mut rng, &mut net);
                }
                let sources: Vec<NodeId> = (0..3)
                    .map(|_| NodeId(rng.next_below(net.node_count() as u64) as u32))
                    .collect();
                assert_reference(
                    &routes,
                    &net,
                    &sources,
                    &format!("seed {seed} round {round}"),
                );
            }
        }
    }

    /// A view is built once and patched across state changes; an added
    /// link, an added node, or a run of changes past the journal
    /// rebuilds it.
    #[test]
    fn the_view_is_rebuilt_only_past_what_a_patch_can_name() {
        let mut rng = Rng::seed_from_u64(7).derive("routing-view-builds");
        let mut net = random_graph(&mut rng);
        let routes = ScopedRoutes::new();
        let read = |net: &Network| {
            routes.metrics(net, NodeId(0), NodeId(1));
            routes.view_builds()
        };
        assert_eq!(routes.view_builds(), 0, "no view before the first row");
        assert_eq!(read(&net), 1);
        net.set_link_up(LinkId(0), false);
        net.set_node_up(NodeId(2), false);
        net.link_mut(LinkId(1)).latency = SimDuration::from_millis(9);
        net.touch();
        assert_eq!(read(&net), 1, "state changes patch the view");
        random_link(&mut rng, &mut net, NodeId(0), NodeId(1));
        assert_eq!(read(&net), 2, "an added link rebuilds it");
        net.add_node("late", "s", 1.0, Credentials::new());
        assert_eq!(read(&net), 3, "an added node rebuilds it");
        for _ in 0..300 {
            net.touch();
        }
        assert_eq!(read(&net), 4, "a journal gap rebuilds it");
    }
}
