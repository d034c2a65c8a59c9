//! Route tables built from per-source Dijkstra trees.
//!
//! [`ScopedRoutes`] is the one route source of the planner and the
//! serving path: it runs a source's shortest-path tree on the source's
//! first question, on a compact routing view it keeps patched from the
//! network's journal, and answers a pair's latency, hops and bottleneck
//! by index into the source's row (allocation happens only for a
//! returned [`Route`]). [`RouteTable`] is the same rows built for every
//! source at once; no client path reads it — it stays as the all-pairs
//! reference for tests and the benchmark's route-table probes.
//!
//! Staleness is detected through the [`Network`] epoch counter: a
//! [`RouteTable`] records `net.epoch()` at build time and `is_current`
//! compares it against the live graph; a [`ScopedRoutes`] row records
//! the epoch it was last exact at, and is carried or re-run on the first
//! question of a later one.
//!
//! ## Carrying rows across a change
//!
//! A Dijkstra row built before a change is often still exactly what a
//! fresh run would produce after it, or differs only at the entry of a
//! host that went down or came back. `carry_row` is the one check of
//! that, shared by [`RouteTable::repair`] (which names the touched
//! elements itself) and [`ScopedRoutes`] (which reads them off the
//! network's journal, [`Network::touched_since`], for every change since
//! the row was last exact). A row is exact
//! when every reached node's entry is its best offer from a live
//! neighbour, ties going to the offer `dijkstra_tree` relaxes first —
//! pop order `(cost, node id)` of the offering node, then the link's
//! position in that node's adjacency list (parallel links tie) — and
//! no live neighbour offers an unreached node anything. Only conditions
//! that mention a touched element can have changed, so the check
//! patches the touched nodes' own entries and re-tests exactly those:
//!
//! - the source itself touched: not carried;
//! - a touched node now down: becomes unreached (its edges are dead, so
//!   a tree child it had fails the next rule);
//! - a touched node now up: takes its first-popped best offer from its
//!   live neighbours (none of which may itself be touched);
//! - every edge of a touched link or at a touched node, both ways: a
//!   tree edge must still be live and produce exactly its child's cost
//!   (from a parent whose cost did not move, unless the child's entry
//!   was itself re-derived); any other live edge must offer strictly
//!   more than the child's cost, or an equal cost that Dijkstra would
//!   relax after the child's tree edge.
//!
//! [`RouteTable::repair`] re-runs Dijkstra for the sources that fail
//! and falls back to a full rebuild when more than
//! [`REPAIR_DAMAGE_THRESHOLD`] of them do.

use crate::graph::{LinkId, Network, NodeId, Touch};
use crate::path::{
    dijkstra_tree, reconstruct, tree_metrics, tree_via, Route, RouteCost, RouteMetrics, UNREACHED,
};
use crate::routing_view::RoutingView;
use ps_sim::SimDuration;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One predecessor-row entry: the last tree edge into a node.
type Pred = Option<(NodeId, LinkId)>;

/// A rewrite of one entry of a carried row.
type Patch = (NodeId, RouteCost, Pred);

/// The elements a run of network changes touched, sorted and
/// deduplicated.
#[derive(Debug)]
struct Damage {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Damage {
    fn new(mut nodes: Vec<NodeId>, mut links: Vec<LinkId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        links.sort_unstable();
        links.dedup();
        Damage { nodes, links }
    }

    /// What `net` journaled since `epoch`: `None` when the journal does
    /// not reach back that far or a node was added.
    fn since(net: &Network, epoch: u64) -> Option<Self> {
        let (mut nodes, mut links) = (Vec::new(), Vec::new());
        for touch in net.touched_since(epoch)? {
            match touch {
                Touch::Node(id) => nodes.push(id),
                Touch::Link(id) => links.push(id),
                Touch::Structure => return None,
                Touch::Nothing => {}
            }
        }
        Some(Damage::new(nodes, links))
    }

    fn touched(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }
}

/// The cost `dijkstra_tree` would offer across `link` from a node
/// reached at `from` (`None` when that node is unreached).
fn relax(view: &RoutingView, from: RouteCost, link: LinkId) -> Option<RouteCost> {
    let (wan, nanos, hops) = from;
    let terms = view.link(link);
    (nanos != u64::MAX).then(|| {
        (
            wan + u32::from(terms.insecure),
            nanos.saturating_add(terms.nanos),
            hops + 1,
        )
    })
}

/// When `dijkstra_tree` relaxes `link` out of `node` (reached at
/// `cost`): nodes pop in `(cost, id)` order, and a popped node relaxes
/// its links in adjacency order. The first of equal offers wins.
fn relax_order(
    view: &RoutingView,
    cost: RouteCost,
    node: NodeId,
    link: LinkId,
) -> (RouteCost, u32, u32) {
    (cost, node.0, view.position(node, link))
}

/// Whether the Dijkstra row rooted at `src` — exact on the network as
/// it stood before `damage` — can be carried onto `view`, the network
/// after it: the entry rewrites that make it exactly what
/// `dijkstra_tree` would now produce, or `None` when that cannot be
/// certified and the row must be re-run. The rules are in the module
/// documentation.
fn carry_row(
    view: &RoutingView,
    src: NodeId,
    dist: &[RouteCost],
    prev: &[Pred],
    damage: &Damage,
) -> Option<Vec<Patch>> {
    if damage.touched(src).is_some() {
        return None;
    }
    let up = |node: NodeId| view.up(node);
    let mut patches = Vec::with_capacity(damage.nodes.len());
    for &node in &damage.nodes {
        if !up(node) {
            // Its tree children, if any, fail the dead-tree-edge rule
            // below.
            patches.push((node, UNREACHED, None));
            continue;
        }
        let mut best: Option<(RouteCost, (RouteCost, u32, u32), Pred)> = None;
        for offerer in view.neighbours(node) {
            let (from, link) = (offerer.node, offerer.link);
            if !offerer.up || !up(from) {
                continue;
            }
            if damage.touched(from).is_some() {
                return None;
            }
            let cost = dist[from.0 as usize];
            let Some(offer) = relax(view, cost, link) else {
                continue;
            };
            let order = relax_order(view, cost, from, link);
            if best.is_none_or(|(c, o, _)| (offer, order) < (c, o)) {
                best = Some((offer, order, Some((from, link))));
            }
        }
        patches.push(best.map_or((node, UNREACHED, None), |(cost, _, pred)| {
            (node, cost, pred)
        }));
    }

    let entry = |node: NodeId| match damage.touched(node) {
        Some(i) => (patches[i].1, patches[i].2),
        None => (dist[node.0 as usize], prev[node.0 as usize]),
    };
    // The conditions on `link` as an edge into `to`.
    let edge_holds = |from: NodeId, to: NodeId, link: LinkId| {
        let (to_cost, to_pred) = entry(to);
        let (from_cost, _) = entry(from);
        let offer = if view.link(link).up && up(from) && up(to) {
            relax(view, from_cost, link)
        } else {
            None
        };
        let tree = to_pred == Some((from, link));
        match offer {
            None => !tree,
            Some(offer) if tree => {
                offer == to_cost
                    && (damage.touched(to).is_some() || from_cost == dist[from.0 as usize])
            }
            Some(offer) => {
                offer > to_cost
                    || (offer == to_cost
                        && to_pred.is_some_and(|(p, pl)| {
                            relax_order(view, entry(p).0, p, pl)
                                < relax_order(view, from_cost, from, link)
                        }))
            }
        }
    };
    let link_holds = |link: LinkId| {
        let terms = view.link(link);
        edge_holds(terms.a, terms.b, link) && edge_holds(terms.b, terms.a, link)
    };
    let holds = damage.links.iter().all(|&link| link_holds(link))
        && damage
            .nodes
            .iter()
            .all(|&node| view.neighbours(node).iter().all(|n| link_holds(n.link)));
    holds.then_some(patches)
}

/// Writes a carried row's entry rewrites.
fn apply(patches: &[Patch], dist: &mut [RouteCost], prev: &mut [Pred]) {
    for &(node, cost, pred) in patches {
        dist[node.0 as usize] = cost;
        prev[node.0 as usize] = pred;
    }
}

/// Fraction of sources above which [`RouteTable::repair`] rebuilds the
/// whole table instead of repairing per-source (numerator/denominator).
pub const REPAIR_DAMAGE_THRESHOLD: (usize, usize) = (1, 4);

/// What [`RouteTable::repair`] did, for perf accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Whether the damage threshold (or a node-count change) forced a
    /// full rebuild.
    pub full_rebuild: bool,
    /// Sources whose Dijkstra tree was re-run.
    pub sources_rebuilt: usize,
    /// Total sources in the table.
    pub sources_total: usize,
    /// Wall-clock time spent repairing, in microseconds (accounting
    /// only; never consulted by any planning decision).
    pub repair_micros: u64,
}

/// Immutable all-pairs routing table for one network epoch.
///
/// Built once per epoch via per-source Dijkstra; `route(from, to)`
/// reconstructs the stored tree path on demand. Results are identical to
/// [`crate::shortest_route`] for every pair (same metric, same
/// deterministic tie-breaks).
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Epoch of the network this table was built from.
    epoch: u64,
    /// Number of nodes at build time.
    n: usize,
    /// Predecessor matrix: `prev[src * n + dst]` is the last tree edge
    /// into `dst` on the shortest path from `src`.
    prev: Vec<Option<(NodeId, LinkId)>>,
    /// Cost matrix, same indexing (`UNREACHED` when disconnected).
    dist: Vec<RouteCost>,
    /// Number of [`RouteTable::repair`] passes applied since the full
    /// build (0 for a freshly built table).
    generation: u64,
}

impl RouteTable {
    /// Builds the table from the network's current state: one full
    /// Dijkstra per source node.
    pub fn build(net: &Network) -> Self {
        let n = net.node_count();
        let mut prev = vec![None; n * n];
        let mut dist = vec![UNREACHED; n * n];
        let view = RoutingView::of(net);
        for src in 0..n {
            let (d, p) = (
                &mut dist[src * n..(src + 1) * n],
                &mut prev[src * n..(src + 1) * n],
            );
            dijkstra_tree(&view, NodeId(src as u32), None, d, p);
        }
        RouteTable {
            epoch: net.epoch(),
            n,
            prev,
            dist,
            generation: 0,
        }
    }

    /// The network epoch this table reflects: the build epoch for a
    /// fresh table, the post-repair epoch after [`RouteTable::repair`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of repair passes applied since the full build.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the table still reflects `net` (same epoch). This is the
    /// single staleness authority for both fresh and repaired tables:
    /// [`RouteTable::repair`] advances the recorded epoch to the
    /// network's, so a repaired table reports current until the next
    /// mutation.
    pub fn is_current(&self, net: &Network) -> bool {
        self.epoch == net.epoch() && self.n == net.node_count()
    }

    /// Incrementally repairs the table after the reported changes,
    /// producing a table identical to `RouteTable::build(net)` (same
    /// routes, same deterministic tie-breaks).
    ///
    /// `touched_links` / `touched_nodes` must cover *every* link and
    /// node whose routing-relevant state (up flag, latency, `Secure`
    /// credential, or an endpoint's up flag via `touched_nodes`)
    /// changed since the epoch this table reflects; extra entries cost
    /// only wasted re-runs, missing ones silently corrupt routes. Falls
    /// back to a full rebuild when the damage exceeds
    /// [`REPAIR_DAMAGE_THRESHOLD`] or the node count changed.
    pub fn repair(
        &mut self,
        net: &Network,
        touched_links: &[LinkId],
        touched_nodes: &[NodeId],
    ) -> RepairOutcome {
        let started = ps_trace::WallTimer::start();
        let n = self.n;
        if net.node_count() != n {
            return self.rebuild_all(net, started);
        }
        let damage = Damage::new(touched_nodes.to_vec(), touched_links.to_vec());
        let view = RoutingView::of(net);
        let carried: Vec<Option<Vec<Patch>>> = self
            .dist
            .chunks(n.max(1))
            .zip(self.prev.chunks(n.max(1)))
            .enumerate()
            .map(|(s, (dist, prev))| carry_row(&view, NodeId(s as u32), dist, prev, &damage))
            .collect();

        let sources_rebuilt = carried.iter().filter(|c| c.is_none()).count();
        let (num, den) = REPAIR_DAMAGE_THRESHOLD;
        if sources_rebuilt * den > n * num {
            return self.rebuild_all(net, started);
        }

        let rows = self
            .dist
            .chunks_mut(n.max(1))
            .zip(self.prev.chunks_mut(n.max(1)));
        for (s, (patches, (d, p))) in carried.into_iter().zip(rows).enumerate() {
            match patches {
                Some(patches) => apply(&patches, d, p),
                None => dijkstra_tree(&view, NodeId(s as u32), None, d, p),
            }
        }
        self.epoch = net.epoch();
        self.generation += 1;
        RepairOutcome {
            full_rebuild: false,
            sources_rebuilt,
            sources_total: n,
            repair_micros: started.elapsed_micros(),
        }
    }

    /// Full-rebuild fallback for [`RouteTable::repair`]; keeps the
    /// repair-generation lineage so stale-read diagnostics can tell a
    /// repaired table from a fresh one.
    fn rebuild_all(&mut self, net: &Network, started: ps_trace::WallTimer) -> RepairOutcome {
        let generation = self.generation + 1;
        *self = RouteTable::build(net);
        self.generation = generation;
        RepairOutcome {
            full_rebuild: true,
            sources_rebuilt: self.n,
            sources_total: self.n,
            repair_micros: started.elapsed_micros(),
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The route from `from` to `to`, or `None` when unreachable.
    /// Identical to [`crate::shortest_route`] on the network the table
    /// was built from. `net` is only consulted for link bandwidths
    /// during reconstruction; it must be the same (unchanged) network.
    pub fn route(&self, net: &Network, from: NodeId, to: NodeId) -> Option<Route> {
        debug_assert!(
            self.is_current(net),
            "route table is stale: built at epoch {} (repair generation {}), network at {}",
            self.epoch,
            self.generation,
            net.epoch()
        );
        let src = from.0 as usize;
        let slice = src * self.n..(src + 1) * self.n;
        reconstruct(net, from, to, &self.dist[slice.clone()], &self.prev[slice])
    }

    /// Latency, bottleneck and hop count of [`route`](Self::route)'s
    /// answer, read off the predecessor chain without materializing it.
    pub fn metrics(&self, net: &Network, from: NodeId, to: NodeId) -> Option<RouteMetrics> {
        debug_assert!(self.is_current(net), "route table is stale");
        let src = from.0 as usize;
        let slice = src * self.n..(src + 1) * self.n;
        tree_metrics(net, from, to, &self.dist[slice.clone()], &self.prev[slice])
    }

    /// Whether `to` is reachable from `from`.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        from == to || self.dist[from.0 as usize * self.n + to.0 as usize].1 != u64::MAX
    }

    /// One-way propagation latency from `from` to `to`, without
    /// materializing the route. `None` when unreachable.
    pub fn latency(&self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        if from == to {
            return Some(SimDuration::ZERO);
        }
        let ns = self.dist[from.0 as usize * self.n + to.0 as usize].1;
        (ns != u64::MAX).then(|| SimDuration::from_nanos(ns))
    }
}

/// Lazily built per-source routing rows over the full graph.
///
/// A full [`RouteTable`] runs one Dijkstra per source — `n` heap passes
/// up front, ~135 ms at a thousand routers. The hierarchical planner
/// only ever asks for routes *from* a handful of sources (the client,
/// pinned hosts, gateways of the regions a chain transits), so
/// `ScopedRoutes` builds exactly those rows, on first use, behind a
/// mutex. Each row is produced by the very same `dijkstra_tree` the full
/// table uses, so every answered query is bit-identical to
/// [`RouteTable::route`] — including deterministic tie-breaks — just
/// restricted to the sources actually touched. A *stub* source — every
/// live link of it leads to one neighbour, as a leaf host's to its
/// uplink — asked while that neighbour's row is exact at the epoch
/// takes the neighbour's row shifted by the best link instead of a heap
/// pass: the same row, bit for bit. [`rows_built`](Self::rows_built)
/// counts rows added either way.
///
/// Every row runs and is carried on the table's one compact routing
/// view (CSR adjacency and per-link terms, built at the first row
/// question), which the first row question of each later epoch patches
/// from the network's journal; it is rebuilt only when a link or node
/// was added or the journal no longer reaches back
/// ([`view_builds`](Self::view_builds) counts the builds). A row answers
/// latency and hop count by index, and the bottleneck from a column
/// filled on first read and refreshed whenever the row is carried.
///
/// Each row records the network epoch it was last exact at. A question
/// at a later epoch first carries the row across every change the
/// network journaled since then, when the [module-level](self)
/// certificate holds for their union, and re-runs its Dijkstra
/// otherwise: on the heal path almost every row survives a host crash
/// or link flap, at the cost of a check linear in the touched elements'
/// degrees. A row asked rarely is carried once across all the changes
/// it missed — a link that went down and came back leaves it exact —
/// and a row nobody asks again costs nothing. One table therefore
/// serves a network across all its epochs; the network must be the one
/// the rows were built on or a descendant of it (the epoch is the only
/// identity a row checks).
#[derive(Debug, Default)]
pub struct ScopedRoutes {
    rows: Mutex<Rows>,
}

#[derive(Debug, Default)]
struct Rows {
    /// What every row runs and is carried on: built at the table's first
    /// row question, patched to the network's epoch at each later one.
    view: Option<RoutingView>,
    /// Rows by source node id.
    by_source: Vec<Option<Box<ScopedRow>>>,
    /// Rows this table added: Dijkstra runs and rows derived from a stub
    /// source's neighbour; carried rows are not counted.
    built: usize,
    /// Of `built`, the rows derived from a stub source's neighbour.
    derived: usize,
    /// Times the view was built rather than patched.
    view_builds: usize,
    /// A bottleneck read's walk up the tree, kept between reads.
    walk: Vec<NodeId>,
}

#[derive(Debug)]
struct ScopedRow {
    /// The network epoch the row was last exact at.
    epoch: u64,
    dist: Vec<RouteCost>,
    prev: Vec<Pred>,
    /// Bottleneck bandwidth of the tree path to each node, filled on
    /// first read at the row's epoch (`NaN` until then). Routing ignores
    /// bandwidth, so a carried row's column is refilled, not patched.
    bottleneck: Vec<f64>,
}

impl ScopedRoutes {
    /// Creates an empty table. No Dijkstra runs until the first query.
    pub fn new() -> Self {
        ScopedRoutes::default()
    }

    fn lock(&self) -> MutexGuard<'_, Rows> {
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rows this table has added: Dijkstra rows run, and rows derived
    /// from a stub source's neighbour (see [`dijkstra_runs`](Self::dijkstra_runs));
    /// a row carried into a later epoch costs none and is not counted.
    /// Deterministic for a deterministic query sequence, so it doubles
    /// as the planner's routing-work metric in stable-mode artifacts.
    pub fn rows_built(&self) -> usize {
        self.lock().built
    }

    /// Of [`rows_built`](Self::rows_built), the rows that ran Dijkstra.
    /// The rest were derived: a source whose every live adjacency entry
    /// leads to one neighbour (a leaf host on its uplink, over one link
    /// or parallel ones), asked while that neighbour's row is exact at
    /// the epoch, takes the neighbour's row shifted by the best link
    /// instead of a heap pass — bit for bit what Dijkstra returns.
    pub fn dijkstra_runs(&self) -> usize {
        let rows = self.lock();
        rows.built - rows.derived
    }

    /// Rows derived from a stub source's neighbour.
    #[cfg(test)]
    pub(crate) fn rows_derived(&self) -> usize {
        self.lock().derived
    }

    /// Times this table built its routing view: once at its first row
    /// question, and again only after a link or node was added or more
    /// changes than the network's journal holds went unread. Every other
    /// epoch patches the view in place.
    pub fn view_builds(&self) -> usize {
        self.lock().view_builds
    }

    /// The route from `from` to `to`, building `from`'s row on first
    /// use. Identical to [`RouteTable::route`] for every pair.
    pub fn route(&self, net: &Network, from: NodeId, to: NodeId) -> Option<Route> {
        self.read_row(net, from, |row| row.route(to))
    }

    /// One-way propagation latency from `from` to `to` (`None` when
    /// unreachable), building `from`'s row on first use.
    pub fn latency(&self, net: &Network, from: NodeId, to: NodeId) -> Option<SimDuration> {
        if from == to {
            return Some(SimDuration::ZERO);
        }
        self.read_row(net, from, |row| row.latency(to))
    }

    /// Latency, bottleneck and hop count of [`route`](Self::route)'s
    /// answer, building `from`'s row on first use but not the route:
    /// read by index off the row ([`RowReader::metrics`]).
    pub fn metrics(&self, net: &Network, from: NodeId, to: NodeId) -> Option<RouteMetrics> {
        self.read_row(net, from, |row| row.metrics(to))
    }

    /// Virtual time to move `bytes` from `from` to `to`
    /// ([`RouteMetrics::transfer_time`] of the route between them):
    /// zero when local — without materializing a row — or unreachable.
    pub fn transfer_time(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        self.metrics(net, from, to)
            .map_or(SimDuration::ZERO, |route| route.transfer_time(bytes))
    }

    /// Intermediate nodes (excluding endpoints) on the shortest path
    /// from `from` to `to`, or `None` when unreachable: the one question
    /// that walks `from`'s predecessor row, one entry per hop; no
    /// [`Route`] is materialized.
    pub fn via_nodes(&self, net: &Network, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.read_row(net, from, |row| row.via(to))
    }

    /// Reads `from`'s routing row for `net`'s epoch under one lock, for
    /// as many destinations as `read` asks: carried from the epoch it
    /// was last exact at when the changes since leave it exact, its
    /// Dijkstra run otherwise (and on first use). The view is patched to
    /// the epoch first.
    pub fn read_row<R>(
        &self,
        net: &Network,
        from: NodeId,
        read: impl FnOnce(&mut RowReader<'_>) -> R,
    ) -> R {
        read(&mut self.lock().current(net, from))
    }
}

impl Rows {
    /// `from`'s row for `net`'s epoch, as [`ScopedRoutes::read_row`]
    /// describes. Not generic, so the row's upkeep — a Dijkstra run or
    /// carry, a view patch — is compiled once rather than into every
    /// reader, which keeps each `read_row` instantiation, the pair-read
    /// path, small (DESIGN.md "What survives an epoch" has the
    /// measurement).
    fn current<'a>(&'a mut self, net: &'a Network, from: NodeId) -> RowReader<'a> {
        let Rows {
            view,
            by_source,
            built,
            derived,
            view_builds,
            walk,
        } = self;
        let view = match view {
            Some(view) => {
                *view_builds += usize::from(view.sync(net));
                view
            }
            None => {
                *view_builds += 1;
                view.insert(RoutingView::of(net))
            }
        };
        if by_source.len() < view.node_count() {
            by_source.resize_with(view.node_count(), || None);
        }
        let (at, epoch) = (from.0 as usize, net.epoch());
        if by_source[at].as_ref().is_none_or(|row| row.epoch != epoch) {
            let stale = by_source[at].take();
            let row = ScopedRow::exact(view, net, by_source, from, stale, built, derived);
            by_source[at] = Some(row);
        }
        // Filled just above when it was missing or stale.
        let row = by_source[at].get_or_insert_with(|| {
            *built += 1;
            Box::new(ScopedRow::run(view, from, epoch))
        });
        RowReader {
            net,
            from,
            row,
            walk,
        }
    }
}

/// The one neighbour every live adjacency entry of `from` leads to, with
/// the link `dijkstra_tree` relaxes to it — the least cost, the first in
/// `from`'s adjacency order on ties — and that cost: `None` when `from`
/// is down or has no live neighbour or more than one.
fn stub_neighbour(view: &RoutingView, from: NodeId) -> Option<(NodeId, LinkId, RouteCost)> {
    if !view.up(from) {
        return None;
    }
    let mut best: Option<(NodeId, LinkId, RouteCost)> = None;
    for next in view.neighbours(from) {
        if !next.up || !view.up(next.node) || next.node == from {
            continue;
        }
        let cost = (u32::from(next.insecure), next.nanos, 1);
        match best {
            Some((neighbour, _, _)) if neighbour != next.node => return None,
            Some((_, _, least)) if least <= cost => {}
            _ => best = Some((next.node, next.link, cost)),
        }
    }
    best
}

/// One source's routing row at the network's current epoch, as
/// [`ScopedRoutes::read_row`] hands it out: each question is an index
/// into the row.
pub struct RowReader<'a> {
    net: &'a Network,
    from: NodeId,
    row: &'a mut ScopedRow,
    walk: &'a mut Vec<NodeId>,
}

impl RowReader<'_> {
    fn route(&self, to: NodeId) -> Option<Route> {
        let ScopedRow { dist, prev, .. } = &*self.row;
        reconstruct(self.net, self.from, to, dist, prev)
    }

    fn via(&self, to: NodeId) -> Option<Vec<NodeId>> {
        tree_via(self.from, to, &self.row.dist, &self.row.prev)
    }

    /// One-way propagation latency to `to`, `None` when unreachable.
    pub fn latency(&self, to: NodeId) -> Option<SimDuration> {
        if to == self.from {
            return Some(SimDuration::ZERO);
        }
        let nanos = self.row.dist[to.0 as usize].1;
        (nanos != u64::MAX).then(|| SimDuration::from_nanos(nanos))
    }

    /// Latency, bottleneck and hop count of the route to `to` — the
    /// figures [`ScopedRoutes::route`] would report — `None` when
    /// unreachable. Latency and hops are the row's cost entry; the
    /// bottleneck is the row's column, filled on its first read at this
    /// epoch for `to` and every node on the way.
    pub fn metrics(&mut self, to: NodeId) -> Option<RouteMetrics> {
        if to == self.from {
            return Some(Route::local(to).metrics());
        }
        let (_, nanos, hops) = self.row.dist[to.0 as usize];
        if nanos == u64::MAX {
            return None;
        }
        Some(RouteMetrics {
            latency: SimDuration::from_nanos(nanos),
            bottleneck_bps: self.bottleneck(to)?,
            hops,
        })
    }

    /// The bottleneck column's entry for reached node `to`: up the tree
    /// to the nearest filled entry (the source's is infinite), then back
    /// down, filling each entry on the way. `None` only if a reached
    /// node had no tree edge, which would mean a corrupt row.
    fn bottleneck(&mut self, to: NodeId) -> Option<f64> {
        let ScopedRow {
            prev, bottleneck, ..
        } = &mut *self.row;
        self.walk.clear();
        let mut cursor = to;
        while bottleneck[cursor.0 as usize].is_nan() {
            self.walk.push(cursor);
            cursor = prev[cursor.0 as usize]?.0;
        }
        let mut bps = bottleneck[cursor.0 as usize];
        while let Some(node) = self.walk.pop() {
            let (_, link) = prev[node.0 as usize]?;
            bps = bps.min(self.net.link(link).bandwidth_bps);
            bottleneck[node.0 as usize] = bps;
        }
        Some(bps)
    }
}

impl ScopedRow {
    /// `from`'s row at `net`'s epoch in place of `stale`, its row of an
    /// older epoch if any: carried across the changes since when they
    /// leave it exact (a node added since leaves no row exact,
    /// `Damage::since`), else derived from a stub source's neighbour row
    /// in `by_source` or run, and counted in `built` (and `derived`).
    #[cold]
    fn exact(
        view: &RoutingView,
        net: &Network,
        by_source: &[Option<Box<ScopedRow>>],
        from: NodeId,
        stale: Option<Box<ScopedRow>>,
        built: &mut usize,
        derived: &mut usize,
    ) -> Box<Self> {
        let epoch = net.epoch();
        let carried = stale.and_then(|mut row| {
            let damage = Damage::since(net, row.epoch)?;
            let patches = carry_row(view, from, &row.dist, &row.prev, &damage)?;
            row.carry(from, &patches, epoch);
            Some(row)
        });
        carried.unwrap_or_else(|| {
            let stub = stub_neighbour(view, from).and_then(|(neighbour, link, cost)| {
                let row = by_source[neighbour.0 as usize].as_deref();
                row.filter(|row| row.epoch == epoch)
                    .map(|row| ScopedRow::derive(row, from, neighbour, link, cost))
            });
            *derived += usize::from(stub.is_some());
            *built += 1;
            Box::new(stub.unwrap_or_else(|| ScopedRow::run(view, from, epoch)))
        })
    }

    /// `from`'s Dijkstra row on `view` (current at `epoch`).
    fn run(view: &RoutingView, from: NodeId, epoch: u64) -> Self {
        let n = view.node_count();
        let (mut dist, mut prev) = (vec![UNREACHED; n], vec![None; n]);
        dijkstra_tree(view, from, None, &mut dist, &mut prev);
        ScopedRow::at(epoch, from, dist, prev)
    }

    /// The row of stub source `from` ([`stub_neighbour`]), derived from
    /// its neighbour's exact row. Dijkstra from `from` pops `from`,
    /// relaxes `link` to `neighbour` at `cost`, and then runs exactly the
    /// neighbour's own Dijkstra with every cost shifted by `cost` — a
    /// shift that keeps the pop order and every tie — except that `from`
    /// is the root: a path through it would leave and re-enter
    /// `neighbour`, so it is a leaf of the neighbour's tree and nobody's
    /// parent.
    fn derive(
        row: &ScopedRow,
        from: NodeId,
        neighbour: NodeId,
        link: LinkId,
        (wan, nanos, hops): RouteCost,
    ) -> Self {
        let shift = |cost: &RouteCost| match *cost {
            UNREACHED => UNREACHED,
            (w, d, h) => (w + wan, d.saturating_add(nanos), h + hops),
        };
        let mut dist: Vec<RouteCost> = row.dist.iter().map(shift).collect();
        let mut prev = row.prev.clone();
        dist[from.0 as usize] = (0, 0, 0);
        prev[from.0 as usize] = None;
        prev[neighbour.0 as usize] = Some((from, link));
        ScopedRow::at(row.epoch, from, dist, prev)
    }

    fn at(epoch: u64, from: NodeId, dist: Vec<RouteCost>, prev: Vec<Pred>) -> Self {
        let mut bottleneck = vec![f64::NAN; dist.len()];
        bottleneck[from.0 as usize] = f64::INFINITY;
        ScopedRow {
            epoch,
            dist,
            prev,
            bottleneck,
        }
    }

    /// Writes a carry's entry rewrites and moves the row to `epoch`. The
    /// certificate does not look at bandwidth, so every bottleneck the
    /// column holds is dropped: the next read refills it.
    fn carry(&mut self, from: NodeId, patches: &[Patch], epoch: u64) {
        apply(patches, &mut self.dist, &mut self.prev);
        self.epoch = epoch;
        self.bottleneck.fill(f64::NAN);
        self.bottleneck[from.0 as usize] = f64::INFINITY;
    }
}

#[cfg(test)]
impl ScopedRoutes {
    /// The epoch `from`'s row was last exact at, without reading it.
    pub(crate) fn row_epoch(&self, from: NodeId) -> Option<u64> {
        let rows = self.lock();
        let row = rows.by_source.get(from.0 as usize)?.as_ref()?;
        Some(row.epoch)
    }

    /// `from`'s row as [`read_row`](Self::read_row) leaves it for
    /// `net`, its metrics to every node, and the view it ran on.
    pub(crate) fn row_snapshot(&self, net: &Network, from: NodeId) -> RowSnapshot {
        let metrics = net
            .node_ids()
            .map(|to| self.metrics(net, from, to))
            .collect();
        let rows = self.lock();
        let row = rows.by_source[from.0 as usize].as_ref().expect("just read");
        RowSnapshot {
            dist: row.dist.clone(),
            prev: row.prev.clone(),
            metrics,
            view: rows.view.clone().expect("just read"),
        }
    }
}

/// A copy of one row and the view it was read on (test-only).
#[cfg(test)]
pub(crate) struct RowSnapshot {
    pub dist: Vec<RouteCost>,
    pub prev: Vec<Pred>,
    pub metrics: Vec<Option<RouteMetrics>>,
    pub view: RoutingView,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Credentials;
    use crate::shortest_route;

    fn secure() -> Credentials {
        Credentials::new().with("Secure", true)
    }

    fn diamond() -> Network {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s1", 1.0, Credentials::new());
        let c = net.add_node("c", "s2", 1.0, Credentials::new());
        let d = net.add_node("d", "s2", 1.0, Credentials::new());
        net.add_link(a, b, SimDuration::from_millis(1), 1e8, secure());
        net.add_link(b, d, SimDuration::from_millis(5), 1e7, Credentials::new());
        net.add_link(a, c, SimDuration::from_millis(2), 1e8, secure());
        net.add_link(c, d, SimDuration::from_millis(2), 1e8, secure());
        net
    }

    #[test]
    fn agrees_with_shortest_route_on_every_pair() {
        let net = diamond();
        let table = RouteTable::build(&net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                let route = shortest_route(&net, from, to);
                assert_eq!(table.route(&net, from, to), route);
                assert_eq!(
                    table.metrics(&net, from, to),
                    route.as_ref().map(Route::metrics)
                );
            }
        }
    }

    #[test]
    fn latency_matches_route_latency() {
        let net = diamond();
        let table = RouteTable::build(&net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                let route = table.route(&net, from, to).unwrap();
                assert_eq!(table.latency(from, to), Some(route.latency));
                assert!(table.reachable(from, to));
            }
        }
    }

    #[test]
    fn epoch_tracks_mutations() {
        let mut net = diamond();
        let table = RouteTable::build(&net);
        assert!(table.is_current(&net));
        net.link_mut(LinkId(0)).latency = SimDuration::from_millis(99);
        assert!(!table.is_current(&net));
        let rebuilt = RouteTable::build(&net);
        assert!(rebuilt.is_current(&net));
        assert!(rebuilt.epoch() > table.epoch());
    }

    /// Asserts the repaired table answers every query identically to a
    /// fresh full build.
    fn assert_matches_full_build(table: &RouteTable, net: &Network, context: &str) {
        assert!(
            table.is_current(net),
            "{context}: repaired table must be current"
        );
        let full = RouteTable::build(net);
        for from in net.node_ids() {
            for to in net.node_ids() {
                assert_eq!(
                    table.route(net, from, to),
                    full.route(net, from, to),
                    "{context}: route {from}->{to} diverged"
                );
                assert_eq!(
                    table.reachable(from, to),
                    full.reachable(from, to),
                    "{context}"
                );
                assert_eq!(table.latency(from, to), full.latency(from, to), "{context}");
            }
        }
    }

    /// a - b - c - d - e chain: quarantining the leaf `e` only re-runs
    /// `e`'s own tree; every other source is patched in place.
    #[test]
    fn leaf_quarantine_repairs_without_tree_reruns() {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| net.add_node(format!("n{i}"), "s", 1.0, Credentials::new()))
            .collect();
        for w in ids.windows(2) {
            net.add_link(w[0], w[1], SimDuration::from_millis(1), 1e8, secure());
        }
        let mut table = RouteTable::build(&net);
        net.set_node_up(ids[4], false);
        let outcome = table.repair(&net, &[], &[ids[4]]);
        assert!(!outcome.full_rebuild);
        assert_eq!(outcome.sources_rebuilt, 1, "only the down node's own tree");
        assert_eq!(table.generation(), 1);
        assert_matches_full_build(&table, &net, "leaf quarantine");
    }

    #[test]
    fn heavy_damage_falls_back_to_full_rebuild() {
        // a - b - c - d - e chain: the middle node is internal to every
        // other source's tree, so quarantining it damages all 5 sources.
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| net.add_node(format!("n{i}"), "s", 1.0, Credentials::new()))
            .collect();
        for w in ids.windows(2) {
            net.add_link(w[0], w[1], SimDuration::from_millis(1), 1e8, secure());
        }
        let mut table = RouteTable::build(&net);
        net.set_node_up(ids[2], false);
        let outcome = table.repair(&net, &[], &[ids[2]]);
        assert!(outcome.full_rebuild);
        assert_eq!(outcome.sources_rebuilt, outcome.sources_total);
        assert_eq!(table.generation(), 1, "fallback keeps the repair lineage");
        assert_matches_full_build(&table, &net, "heavy damage");
    }

    #[test]
    fn node_count_change_forces_full_rebuild() {
        let mut net = diamond();
        let mut table = RouteTable::build(&net);
        let e = net.add_node("e", "s2", 1.0, Credentials::new());
        net.add_link(NodeId(3), e, SimDuration::from_millis(1), 1e8, secure());
        let outcome = table.repair(&net, &[], &[]);
        assert!(outcome.full_rebuild);
        assert_matches_full_build(&table, &net, "node-count change");
    }

    /// Property: across randomized seeded link-flap / crash / restart /
    /// latency-change sequences, `repair` produces a table identical to
    /// a from-scratch `RouteTable::build` after every single event.
    #[test]
    fn repair_matches_full_build_across_random_flap_sequences() {
        use crate::brite::{hierarchical, FlatParams, HierParams};
        use ps_sim::{ChaosConfig, FaultKind, FaultPlan, Rng};

        for seed in 0..6u64 {
            let mut rng = Rng::seed_from_u64(seed).derive("repair-equiv");
            let params = HierParams {
                as_count: 3,
                router: FlatParams {
                    nodes: 5,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut net = hierarchical(&mut rng, &params);
            let mut table = RouteTable::build(&net);
            let config = ChaosConfig {
                crashable_nodes: net.node_ids().map(|n| n.0).collect(),
                flappable_links: (0..net.link_count() as u32).collect(),
                node_crashes: 4,
                link_flaps: 6,
                loss_windows: 0,
                ..ChaosConfig::default()
            };
            let plan = FaultPlan::randomized(7919 * seed + 1, &config);
            for (i, ev) in plan.events().iter().enumerate() {
                let mut links = Vec::new();
                let mut nodes = Vec::new();
                match ev.kind {
                    FaultKind::NodeCrash { node } => {
                        net.set_node_up(NodeId(node), false);
                        nodes.push(NodeId(node));
                    }
                    FaultKind::NodeRestart { node } => {
                        net.set_node_up(NodeId(node), true);
                        nodes.push(NodeId(node));
                    }
                    FaultKind::LinkDown { link } => {
                        net.set_link_up(LinkId(link), false);
                        links.push(LinkId(link));
                    }
                    FaultKind::LinkUp { link } => {
                        net.set_link_up(LinkId(link), true);
                        links.push(LinkId(link));
                    }
                    FaultKind::LossStart { .. } | FaultKind::LossEnd { .. } => continue,
                }
                if i % 3 == 0 {
                    // Batch a link-weight change into the same repair:
                    // worsenings and improvements both get exercised.
                    let l = LinkId(rng.next_below(net.link_count() as u64) as u32);
                    net.link_mut(l).latency = SimDuration::from_millis(1 + rng.next_below(20));
                    links.push(l);
                }
                table.repair(&net, &links, &nodes);
                assert_matches_full_build(&table, &net, &format!("seed {seed} event {i}"));
            }
        }
    }

    #[test]
    fn scoped_routes_match_full_table_and_build_lazily() {
        let net = diamond();
        let table = RouteTable::build(&net);
        let scoped = ScopedRoutes::new();
        assert_eq!(scoped.rows_built(), 0, "no rows before the first query");
        for from in [NodeId(0), NodeId(2)] {
            for to in net.node_ids() {
                let route = table.route(&net, from, to);
                assert_eq!(scoped.route(&net, from, to), route);
                assert_eq!(scoped.latency(&net, from, to), table.latency(from, to));
                assert_eq!(
                    scoped.metrics(&net, from, to),
                    route.as_ref().map(Route::metrics)
                );
                assert_eq!(
                    scoped.transfer_time(&net, from, to, 4096),
                    route
                        .as_ref()
                        .map_or(SimDuration::ZERO, |r| r.metrics().transfer_time(4096))
                );
                assert_eq!(scoped.via_nodes(&net, from, to), route.map(|r| r.via));
            }
        }
        assert_eq!(scoped.rows_built(), 2, "only the queried sources");
        // Local questions never materialize a row.
        assert_eq!(
            scoped.latency(&net, NodeId(3), NodeId(3)),
            Some(SimDuration::ZERO)
        );
        assert_eq!(
            scoped.transfer_time(&net, NodeId(3), NodeId(3), 4096),
            SimDuration::ZERO
        );
        assert_eq!(scoped.rows_built(), 2);
    }

    /// A row asked after a change it cannot be carried across answers
    /// for the changed network.
    #[test]
    fn scoped_routes_detect_staleness() {
        let mut net = diamond();
        let scoped = ScopedRoutes::new();
        let (a, d) = (NodeId(0), NodeId(3));
        let before = scoped.route(&net, a, d);
        net.set_link_up(LinkId(2), false);
        let after = scoped.route(&net, a, d);
        assert_ne!(after, before, "a-c is on the secure route");
        assert_eq!(after, RouteTable::build(&net).route(&net, a, d));
        assert_eq!(scoped.rows_built(), 2, "the row was re-run");
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let mut net = diamond();
        let lonely = net.add_node("lonely", "s3", 1.0, Credentials::new());
        let table = RouteTable::build(&net);
        assert_eq!(table.route(&net, NodeId(0), lonely), None);
        assert!(!table.reachable(NodeId(0), lonely));
        assert_eq!(table.latency(NodeId(0), lonely), None);
        assert_eq!(table.metrics(&net, NodeId(0), lonely), None);
        assert!(table.reachable(lonely, lonely));
    }
}
