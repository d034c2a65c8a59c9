//! Hierarchical gateway-composed planning.
//!
//! The flat planner maps every chain onto the *whole* network: at a
//! thousand routers the candidate sets, the bounds, and the routing rows
//! from every roaming candidate all pay for nodes the optimal plan will
//! never touch. This module exploits the fabric's region structure (BRITE AS
//! ids / case-study sites, exposed as [`RegionMap`]) to decompose the
//! solve:
//!
//! 1. **Anchors** — the nodes a plan must touch (client, pinned
//!    primaries, attachable existing instances, the code origin).
//! 2. **Corridor** — the nodes on shortest routes between anchors, plus
//!    the border gateways of every region the corridor transits: the
//!    gateway skeleton chain traffic composes across.
//! 3. **Segment shortlists** — per transit region and per component, the
//!    best few installable hosts ranked by proximity to the region's
//!    gateways. Shortlists are *client-independent* and memoized in a
//!    [`HierMemo`] keyed by (region, component, request signature),
//!    validated against the region's epoch
//!    ([`Network::region_epoch`]) — a fault in one AS invalidates only
//!    that AS's entries, and concurrent connects / heal passes share
//!    the memo.
//!
//! The union of those sets is the *composition universe*; the exact
//! branch-and-bound search then runs restricted to it (same evaluator,
//! same bounds, the same lazily built [`ScopedRoutes`] rows) and the
//! composed plan ships as it is. It is not
//! *provably* the flat optimum — a better host may sit outside every
//! shortlist — but it equals it bit for bit on every fabric measured,
//! which `tests/hier_equivalence.rs` and `bench_scale` assert (DESIGN.md
//! "Exactness, measured"). When the universe holds *no* feasible mapping
//! the solve falls back to the flat search ([`Planner::solve`]).

use crate::linkage::LinkageGraph;
use crate::mapping::Mapper;
use crate::plan::{ExistingInstance, Plan, PlanStats, ServiceRequest};
use crate::planner::Planner;
use ps_net::{Network, NodeId, PropertyTranslator, RegionMap, ScopedRoutes};
use ps_spec::{Environment, ResolvedBindings};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

/// Turns on the hierarchical planning path
/// ([`PlannerConfig::hier`](crate::PlannerConfig)). A marker: the path
/// has no tunables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierConfig {}

/// Shortlist length per (region, component): how many installable hosts
/// each region contributes to the composition universe.
const SHORTLIST: usize = 6;
/// How many of a region's gateways participate in shortlist ranking
/// (each ranked gateway costs one lazy Dijkstra row).
const RANK_GATEWAYS: usize = 4;

/// Work attributed to one region during a hierarchical solve, for the
/// per-region trace metrics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RegionWork {
    /// Segment shortlists solved (memo misses).
    segments: u64,
    /// Shortlists answered from the memo.
    hits: u64,
    /// Wall-clock microseconds spent on this region's segment solves
    /// (accounting only; `_wall_` metrics are stripped from stable
    /// artifacts).
    wall_us: u64,
}

/// Per-region work of one hierarchical solve, by region name.
pub(crate) type RegionWorkMap = BTreeMap<String, RegionWork>;

/// The serving layer's one memo: everything a connect (a client's
/// first, or a heal pass's redeploy) would otherwise re-derive against
/// an unchanged network. One memo is owned by the generic server and
/// shared by every connect it runs. Its parts and what retires them:
///
/// | part | key | retired by |
/// |---|---|---|
/// | lazy route rows ([`ScopedRoutes`]) | source node | an epoch change that touched the row ([`ScopedRoutes::carried`]) |
/// | completed plans | the request, by value, under one live-instance set | any epoch change; a plan stored under another live set |
/// | segment shortlists | (region, component, request signature by value) | that region's epoch ([`Network::region_epoch`]) |
/// | region map | — | a node or link count change |
///
/// Every entry point runs the same epoch check first, so a plan of an
/// older epoch can never answer, and a route row answers
/// only once certified exact for the new one; shortlists carry their
/// region's epoch and outlive a change elsewhere in the fabric.
#[derive(Debug, Default)]
pub struct HierMemo {
    inner: Mutex<MemoInner>,
}

#[derive(Debug, Default)]
struct MemoInner {
    region_map: Option<Arc<RegionMap>>,
    scoped: Option<Arc<ScopedRoutes>>,
    plans: PlanCache,
    /// Distinct request signatures seen, compared by value; a shortlist
    /// key names one by its index here.
    signatures: Vec<RequestSignature>,
    /// (region index, component, signature index) → (region epoch at
    /// solve time, shortlist). Entries whose epoch no longer matches the
    /// live region are stale and recomputed on next use.
    shortlists: BTreeMap<ShortlistKey, (u64, Vec<NodeId>)>,
    hits: u64,
    misses: u64,
}

type ShortlistKey = (u32, String, u32);

/// Completed plans of the current network epoch and one live-instance
/// set. A hit is exact: the planner is a pure function of the network
/// (fixed for the epoch), the registered service, the request and the
/// attachable instances, and the entry matches all of them by value.
#[derive(Debug, Default)]
struct PlanCache {
    /// The attachable instances every entry was planned against.
    live: Vec<ExistingInstance>,
    /// Entries bucketed by (client, rate bits) — a typed prefix of the
    /// request, so a lookup compares few whole requests.
    by_client: BTreeMap<(NodeId, u64), Vec<CachedPlan>>,
}

#[derive(Debug)]
struct CachedPlan {
    service: String,
    request: ServiceRequest,
    plan: Arc<Plan>,
}

impl MemoInner {
    /// The epoch check every entry point runs: when the network moved
    /// on, the route rows the changes left exact are carried into a
    /// table of the new epoch ([`ScopedRoutes::carried`]; all of them
    /// are dropped if a solve still holds the old table), and every
    /// cached plan is dropped.
    fn sync(&mut self, net: &Network) -> Arc<ScopedRoutes> {
        match self.scoped.take() {
            Some(scoped) if scoped.is_current(net) => {
                self.scoped = Some(Arc::clone(&scoped));
                scoped
            }
            stale => {
                let scoped = Arc::new(match stale.map(Arc::try_unwrap) {
                    Some(Ok(stale)) => stale.carried(net),
                    _ => ScopedRoutes::new(net),
                });
                self.scoped = Some(Arc::clone(&scoped));
                self.plans.by_client.clear();
                scoped
            }
        }
    }
}

impl HierMemo {
    /// An empty memo.
    pub fn new() -> Self {
        HierMemo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached region decomposition, rebuilt when the network's
    /// structure (node/link counts) changed.
    pub fn region_map(&self, net: &Network) -> Arc<RegionMap> {
        let mut inner = self.lock();
        match &inner.region_map {
            Some(map) if map.is_current(net) => Arc::clone(map),
            _ => {
                let map = Arc::new(RegionMap::build(net));
                inner.region_map = Some(Arc::clone(&map));
                map
            }
        }
    }

    /// The lazy route rows for the network's current epoch. On an epoch
    /// change the rows the change provably left exact are carried over
    /// ([`ScopedRoutes::carried`]) and the rest are rebuilt on first use:
    /// a host crash or link flap leaves most rows untouched.
    pub fn scoped_routes(&self, net: &Network) -> Arc<ScopedRoutes> {
        self.lock().sync(net)
    }

    /// Dijkstra source rows the memo ran for its epoch: the rows it
    /// built, not those it carried from an earlier epoch (zero before the
    /// first route question). Deterministic, so "a warm connect runs no
    /// Dijkstra" is checkable as a count.
    pub fn route_rows_built(&self) -> usize {
        self.lock().scoped.as_ref().map_or(0, |s| s.rows_built())
    }

    /// The plan stored for exactly this `service`, `request` and `live`
    /// instance set at the network's current epoch.
    pub fn cached_plan(
        &self,
        net: &Network,
        service: &str,
        request: &ServiceRequest,
        live: &[ExistingInstance],
    ) -> Option<Arc<Plan>> {
        let mut inner = self.lock();
        inner.sync(net);
        if inner.plans.live != live {
            return None;
        }
        inner
            .plans
            .by_client
            .get(&(request.client_node, request.rate.to_bits()))?
            .iter()
            .find(|entry| entry.service == service && entry.request.same_as(request))
            .map(|entry| Arc::clone(&entry.plan))
    }

    /// Stores a completed plan. Plans stored under another live set
    /// could only answer if that exact set came back, so they are
    /// swept here: the cache holds one entry per distinct request of
    /// the current epoch and live set, however instances churn.
    pub fn store_plan(
        &self,
        net: &Network,
        service: &str,
        request: &ServiceRequest,
        live: Vec<ExistingInstance>,
        plan: Arc<Plan>,
    ) {
        let mut inner = self.lock();
        inner.sync(net);
        if inner.plans.live != live {
            inner.plans.by_client.clear();
            inner.plans.live = live;
        }
        inner
            .plans
            .by_client
            .entry((request.client_node, request.rate.to_bits()))
            .or_default()
            .push(CachedPlan {
                service: service.to_owned(),
                request: request.clone(),
                plan,
            });
    }

    /// Drops every cached plan (routes and shortlists stay).
    pub fn clear_plans(&self) {
        self.lock().plans.by_client.clear();
    }

    /// Number of cached plans.
    pub fn cached_plans(&self) -> usize {
        self.lock().plans.by_client.values().map(Vec::len).sum()
    }

    /// The index of `request`'s signature among those seen so far,
    /// interning it on first sight. Identity is the signature's value:
    /// two requests share shortlists only when every field the
    /// signature carries is equal.
    fn signature_id(&self, request: &ServiceRequest) -> u32 {
        let signature = RequestSignature::of(request);
        let mut inner = self.lock();
        let at = inner
            .signatures
            .iter()
            .position(|seen| *seen == signature)
            .unwrap_or_else(|| {
                inner.signatures.push(signature);
                inner.signatures.len() - 1
            });
        at as u32
    }

    /// Looks up a shortlist; a hit requires the stored region epoch to
    /// match the live one (region-local invalidation).
    fn shortlist(
        &self,
        net: &Network,
        region_name: &str,
        key: &ShortlistKey,
    ) -> Option<Vec<NodeId>> {
        let mut inner = self.lock();
        let live = net.region_epoch(region_name);
        match inner.shortlists.get(key) {
            Some((epoch, nodes)) if *epoch == live => {
                let nodes = nodes.clone();
                inner.hits += 1;
                Some(nodes)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    fn store_shortlist(
        &self,
        net: &Network,
        region_name: &str,
        key: ShortlistKey,
        nodes: Vec<NodeId>,
    ) {
        let epoch = net.region_epoch(region_name);
        self.lock().shortlists.insert(key, (epoch, nodes));
    }

    /// Shortlist lookups answered from the memo since construction.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Shortlist lookups that missed (absent or stale).
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Total stored shortlist entries (live and stale).
    pub fn total_entries(&self) -> usize {
        self.lock().shortlists.len()
    }

    /// Stored entries still valid against the live per-region epochs —
    /// the complement is what region-local damage invalidated.
    pub fn live_entries(&self, net: &Network, map: &RegionMap) -> usize {
        self.lock()
            .shortlists
            .iter()
            .filter(|((region, _, _), (epoch, _))| {
                map.regions()
                    .get(*region as usize)
                    .is_some_and(|r| net.region_epoch(&r.name) == *epoch)
            })
            .count()
    }
}

/// Client-independent identity of a request for shortlist keying:
/// interfaces, request environment, requirements, degraded flag,
/// pinning, and the attachable existing instances, compared by value.
/// The client node and request rate are deliberately excluded —
/// shortlist membership does not depend on them, so a whole client
/// population shares one signature.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RequestSignature {
    interfaces: Vec<String>,
    request_env: Environment,
    required: ResolvedBindings,
    degraded: bool,
    pinned: BTreeMap<String, NodeId>,
    /// Sorted: the attachable instances are a set, the order they were
    /// declared in carries nothing.
    existing: Vec<ExistingInstance>,
}

impl RequestSignature {
    fn of(request: &ServiceRequest) -> Self {
        let mut existing = request.existing.clone();
        existing.sort_unstable();
        RequestSignature {
            interfaces: request.interfaces.clone(),
            request_env: request.request_env.clone(),
            required: request.required.clone(),
            degraded: request.degraded,
            pinned: request.pinned.clone(),
            existing,
        }
    }
}

/// Everything one hierarchical solve needs: the universe-restricted
/// mapper plus per-region work attribution.
pub(crate) struct HierSetup<'a> {
    pub mapper: Mapper<'a>,
    pub per_region: RegionWorkMap,
}

impl Planner {
    /// Builds the composition universe and its mapper over the memo's
    /// route rows of the epoch. `None` when the fabric has fewer than two
    /// regions (hierarchical planning adds nothing there).
    pub(crate) fn hier_setup<'a, T: PropertyTranslator + ?Sized>(
        &'a self,
        net: &'a Network,
        translator: &'a T,
        request: &'a ServiceRequest,
        graphs: &[LinkageGraph],
        memo: &HierMemo,
        stats: &mut PlanStats,
    ) -> Option<HierSetup<'a>> {
        let map = memo.region_map(net);
        if map.len() < 2 {
            return None;
        }
        let scoped = memo.scoped_routes(net);
        let sig = memo.signature_id(request);

        // Anchors: nodes every candidate plan is tethered to.
        let mut anchors: Vec<NodeId> = vec![request.client_node, request.effective_origin()];
        anchors.extend(request.pinned.values().copied());
        anchors.extend(request.existing.iter().map(|e| e.node));
        anchors.sort_unstable();
        anchors.dedup();

        // Corridor: nodes on anchor↔anchor shortest routes, and the
        // regions those routes transit.
        let mut universe: BTreeSet<NodeId> = anchors.iter().copied().collect();
        let mut transit: BTreeSet<usize> = anchors.iter().map(|&a| map.region_of(a)).collect();
        for (i, &a) in anchors.iter().enumerate() {
            for &b in &anchors[i + 1..] {
                if let Some(via) = scoped.via_nodes(net, a, b) {
                    for node in via {
                        universe.insert(node);
                        transit.insert(map.region_of(node));
                    }
                }
            }
        }
        // Border gateways of every transit region: the skeleton the
        // composition crosses between regions.
        for &region in &transit {
            universe.extend(map.region(region).gateways.iter().copied());
        }

        // The mapper is built before the shortlist pass (its
        // `component_fits` drives candidate filtering) and restricted to
        // the universe afterwards — `with_universe` must precede any
        // candidate query, and `component_fits` makes none.
        let mapper = Mapper::new(
            &self.spec,
            net,
            translator,
            request,
            self.config.objective,
            Arc::clone(&scoped),
        );

        let mut components: BTreeSet<&str> = BTreeSet::new();
        for graph in graphs {
            for node in &graph.nodes {
                components.insert(node.component.as_str());
            }
        }

        let mut per_region: BTreeMap<String, RegionWork> = BTreeMap::new();
        for &region_idx in &transit {
            let region = map.region(region_idx);
            let work = per_region.entry(region.name.clone()).or_default();
            for &component in &components {
                let key = (region_idx as u32, component.to_string(), sig);
                if let Some(nodes) = memo.shortlist(net, &region.name, &key) {
                    work.hits += 1;
                    stats.hier_memo_hits += 1;
                    universe.extend(nodes);
                    continue;
                }
                let timer = ps_trace::WallTimer::start();
                let shortlist = segment_shortlist(&mapper, net, &scoped, region, component);
                work.wall_us += timer.elapsed_micros();
                work.segments += 1;
                stats.hier_segments += 1;
                universe.extend(shortlist.iter().copied());
                memo.store_shortlist(net, &region.name, key, shortlist);
            }
        }

        let universe: Vec<NodeId> = universe.into_iter().collect();
        stats.hier_universe = universe.len() as u32;
        let mapper = mapper.with_universe(universe);
        Some(HierSetup { mapper, per_region })
    }

    /// Publishes hierarchical counters, including per-region plan-work
    /// attribution for `timeline_report` breakdowns.
    pub(crate) fn publish_hier(&self, stats: &PlanStats, per_region: &RegionWorkMap) {
        let tracer = &self.config.tracer;
        tracer.count("planner.hier.plans", 1);
        tracer.count("planner.hier.segments", u64::from(stats.hier_segments));
        tracer.count("planner.hier.memo_hits", u64::from(stats.hier_memo_hits));
        tracer.gauge("planner.hier.universe", f64::from(stats.hier_universe));
        tracer.count("planner.hier.route_rows", stats.route_rows_built);
        for (site, work) in per_region {
            tracer.count(&format!("planner.region.{site}.segments"), work.segments);
            tracer.count(&format!("planner.region.{site}.memo_hits"), work.hits);
            // Cumulative wall-clock attribution: `_wall_` metrics are
            // stripped from stable-mode artifacts by the registry.
            tracer.count(&format!("planner.region.{site}.plan_wall_us"), work.wall_us);
        }
    }
}

/// Computes one region's shortlist for `component`: every member host
/// passing the condition-1 filter, ranked by proximity to the region's
/// border gateways (minimum scoped latency to any of the first
/// [`RANK_GATEWAYS`] gateways; ties and gateway-less regions fall back to
/// node-id order), truncated to [`SHORTLIST`].
fn segment_shortlist(
    mapper: &Mapper<'_>,
    net: &Network,
    scoped: &ScopedRoutes,
    region: &ps_net::Region,
    component: &str,
) -> Vec<NodeId> {
    let Some(decl) = mapper.spec.get_component(component) else {
        return Vec::new();
    };
    let mut fitting: Vec<(u64, NodeId)> = region
        .nodes
        .iter()
        .copied()
        .filter(|&node| net.node(node).up && mapper.component_fits(decl, node))
        .map(|node| {
            let proximity = region
                .gateways
                .iter()
                .take(RANK_GATEWAYS)
                .filter_map(|&gw| scoped.latency(net, gw, node))
                .map(|latency| latency.as_nanos())
                .min()
                .unwrap_or(0);
            (proximity, node)
        })
        .collect();
    fitting.sort_unstable();
    fitting.truncate(SHORTLIST);
    fitting.into_iter().map(|(_, node)| node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_ignores_client_and_rate_but_not_env() {
        let sig = RequestSignature::of;
        let base = ServiceRequest::new("Mail", NodeId(3)).rate(2.0);
        let other_client = ServiceRequest::new("Mail", NodeId(9)).rate(7.5);
        assert_eq!(sig(&base), sig(&other_client));

        let degraded = ServiceRequest::new("Mail", NodeId(3)).degraded_mode();
        assert_ne!(sig(&base), sig(&degraded));

        let pinned = ServiceRequest::new("Mail", NodeId(3)).pin("MailServer", NodeId(1));
        assert_ne!(sig(&base), sig(&pinned));

        let required = ServiceRequest::new("Mail", NodeId(3)).require("Confidential", true);
        assert_ne!(sig(&base), sig(&required));

        // Attachable instances are a set: declaration order is not
        // part of the identity, membership is.
        let vms = |r: ServiceRequest, n| {
            r.existing_instance("ViewMailServer", NodeId(n), ResolvedBindings::new())
        };
        assert_eq!(
            sig(&vms(vms(base.clone(), 4), 5)),
            sig(&vms(vms(base.clone(), 5), 4))
        );
        assert_ne!(sig(&vms(base.clone(), 4)), sig(&vms(base.clone(), 5)));
    }

    /// Shortlists are keyed on the signature's value, not on a hash of
    /// it: requests that differ in any signature field get their own
    /// entries, requests that differ only outside it share one.
    #[test]
    fn shortlists_are_shared_by_equal_signatures_only() {
        let mut net = Network::new();
        let host = net.add_node("a", "as0", 1.0, ps_net::Credentials::new());
        let memo = HierMemo::new();
        let plain = ServiceRequest::new("Mail", NodeId(3));
        let strict = plain.clone().require("Confidential", true);
        let elsewhere = ServiceRequest::new("Mail", NodeId(9)).rate(7.5);
        assert_ne!(memo.signature_id(&plain), memo.signature_id(&strict));
        assert_eq!(memo.signature_id(&plain), memo.signature_id(&elsewhere));

        let key = |request| (0, "MailServer".to_owned(), memo.signature_id(request));
        memo.store_shortlist(&net, "as0", key(&plain), vec![host]);
        assert_eq!(memo.shortlist(&net, "as0", &key(&strict)), None);
        assert_eq!(
            memo.shortlist(&net, "as0", &key(&elsewhere)),
            Some(vec![host])
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }
}
