//! Hierarchical gateway-composed planning.
//!
//! The flat planner maps every chain onto the *whole* network: at a
//! thousand routers the candidate sets, the suffix bounds, and the
//! all-pairs route table all pay for nodes the optimal plan will never
//! touch. This module exploits the fabric's region structure (BRITE AS
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
//! same bounds, lazily built [`ScopedRoutes`] rows instead of a full
//! route table). The composed objective seeds the shared incumbent for
//! an optional **refinement sweep** over the full network
//! ([`HierConfig::refine`]): strict-improvement pruning means the sweep
//! only surfaces *strictly better* plans, so when it returns nothing the
//! composed plan is provably the flat optimum. Without refinement the
//! composed plan ships immediately and [`PlanStats::hier_gap_micro`]
//! reports an admissible optimality-gap bound instead.

use crate::exhaustive;
use crate::linkage::{enumerate_linkages_multi, LinkageGraph};
use crate::load::propagate_rates;
use crate::mapping::Mapper;
use crate::plan::{
    ExistingInstance, Objective, Plan, PlanError, PlanRepairStats, PlanStats, ServiceRequest,
};
use crate::planner::{assemble_plan, Planner, RepairContext};
use ps_net::{Network, NodeId, PropertyTranslator, RegionMap, RouteTable, ScopedRoutes};
use ps_spec::{Environment, ResolvedBindings};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of the hierarchical planning path
/// ([`PlannerConfig::hier`](crate::PlannerConfig)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierConfig {
    /// Run the exact refinement sweep over the full network after
    /// composing (warm-started by the composed incumbent). With it the
    /// returned optimum is provably identical to the flat search's;
    /// without it the composed plan ships as-is and
    /// [`PlanStats::hier_gap_micro`] carries the optimality-gap bound.
    pub refine: bool,
    /// Shortlist length per (region, component): how many installable
    /// hosts each region contributes to the composition universe.
    pub shortlist: usize,
    /// How many of a region's gateways participate in shortlist
    /// ranking (each ranked gateway costs one lazy Dijkstra row).
    pub rank_gateways: usize,
}

impl Default for HierConfig {
    fn default() -> Self {
        HierConfig {
            refine: false,
            shortlist: 6,
            rank_gateways: 4,
        }
    }
}

/// Work attributed to one region during a hierarchical solve, for the
/// per-region trace metrics.
#[derive(Debug, Clone, Copy, Default)]
struct RegionWork {
    /// Segment shortlists solved (memo misses).
    segments: u64,
    /// Shortlists answered from the memo.
    hits: u64,
    /// Wall-clock microseconds spent on this region's segment solves
    /// (accounting only; `_wall_` metrics are stripped from stable
    /// artifacts).
    wall_us: u64,
}

/// The serving layer's one memo: everything a connect or a heal-pass
/// repair would otherwise re-derive against an unchanged network. One
/// memo is owned by the generic server and shared by every connect and
/// repair it runs. Its parts and what retires them:
///
/// | part | key | retired by |
/// |---|---|---|
/// | lazy route rows ([`ScopedRoutes`]) | source node | any network epoch change |
/// | completed plans | the request, by value, under one live-instance set | any epoch change; a plan stored under another live set |
/// | segment shortlists | (region, component, request signature by value) | that region's epoch ([`Network::region_epoch`]) |
/// | region map | — | a node or link count change |
///
/// Every entry point runs the same epoch check first, so a row or plan
/// of an older epoch can never answer; shortlists carry their region's
/// epoch and outlive a change elsewhere in the fabric.
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
    /// on, the route rows are replaced by an empty table of the new
    /// epoch and every cached plan is dropped.
    fn sync(&mut self, net: &Network) -> Arc<ScopedRoutes> {
        match &self.scoped {
            Some(scoped) if scoped.is_current(net) => Arc::clone(scoped),
            _ => {
                let scoped = Arc::new(ScopedRoutes::new(net));
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

    /// The lazy route rows for the network's current epoch, replaced
    /// wholesale on any epoch change (rebuilding a handful of on-demand
    /// rows is cheaper than classifying damage).
    pub fn scoped_routes(&self, net: &Network) -> Arc<ScopedRoutes> {
        self.lock().sync(net)
    }

    /// Source rows the current epoch's route table holds (zero before
    /// the first route question). Deterministic, so "a warm connect
    /// runs no Dijkstra" is checkable as a count.
    pub fn route_rows_built(&self) -> usize {
        self.lock()
            .scoped
            .as_ref()
            .map_or(0, |scoped| scoped.rows_built())
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
struct HierSetup<'a> {
    mapper: Mapper<'a>,
    scoped: Arc<ScopedRoutes>,
    /// Rows the shared `scoped` already held when this solve started.
    rows_before: usize,
    per_region: BTreeMap<String, RegionWork>,
}

impl HierSetup<'_> {
    /// Routing rows this solve added to the memo's shared
    /// [`ScopedRoutes`] — its own Dijkstra work, not the running total
    /// of every plan of the epoch. (Solves racing on one memo may count
    /// each other's rows; the serving layer plans one at a time.)
    fn rows_built(&self) -> u64 {
        (self.scoped.rows_built() - self.rows_before) as u64
    }
}

impl Planner {
    /// Hierarchical counterpart of [`Planner::plan`]: composes
    /// per-region segment shortlists across the gateway skeleton and
    /// searches the restricted universe, optionally refining to the
    /// provable flat optimum (see the module docs). Falls back to the
    /// flat path when the network has fewer than two regions or the
    /// restricted universe turns out infeasible.
    pub fn plan_hierarchical<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        memo: &HierMemo,
    ) -> Result<Plan, PlanError> {
        for pinned in request.pinned.keys() {
            if self.spec.get_component(pinned).is_none() {
                return Err(PlanError::UnknownPinned(pinned.clone()));
            }
        }
        let graphs = enumerate_linkages_multi(
            &self.spec,
            &request.interfaces,
            &self.effective_limits(request),
        );
        if graphs.is_empty() {
            return Err(PlanError::NoImplementers(request.interfaces.join(" + ")));
        }
        let mut stats = PlanStats {
            graphs_enumerated: graphs.len(),
            ..PlanStats::default()
        };
        let Some(setup) = self.hier_setup(net, translator, request, &graphs, memo, &[], &mut stats)
        else {
            // Single-region fabric: nothing to decompose.
            return self.plan(net, translator, request);
        };

        let incumbent = exhaustive::Incumbent::new();
        let mut best: Option<Plan> = None;
        for graph in &graphs {
            if !self.graph_possibly_feasible(graph, request) {
                stats.prunes += 1;
                continue;
            }
            let Some((assignment, eval)) =
                exhaustive::search_seeded(&setup.mapper, graph, &mut stats, &incumbent)
            else {
                continue;
            };
            let better = best
                .as_ref()
                .is_none_or(|b| eval.objective_value < b.objective_value);
            if better {
                best = Some(assemble_plan(graph, &assignment, eval));
            }
        }
        stats.route_rows_built = setup.rows_built();

        let Some(mut plan) = best else {
            // The restricted universe missed every feasible mapping
            // (e.g. the only installable host sits outside all
            // shortlists). Correctness over speed: re-plan flat.
            return self.plan(net, translator, request);
        };

        let cfg = self.config.hier.clone().unwrap_or_default();
        if cfg.refine {
            self.refine_sweep(
                net, translator, request, &graphs, &incumbent, &mut plan, &mut stats,
            );
        } else {
            stats.hier_gap_micro = gap_micro(
                plan.objective_value,
                self.objective_lower_bound(net, request, &graphs),
            );
        }
        plan.stats = stats;
        self.publish_stats(&plan.stats);
        self.publish_hier(&plan.stats, &setup.per_region);
        Ok(plan)
    }

    /// Hierarchical counterpart of [`Planner::plan_repair`]: the repair
    /// solve (surviving placements fixed) and the follow-up sweep both
    /// run on the composition universe — with the old plan's hosts as
    /// additional anchors — instead of the whole network. With
    /// [`HierConfig::refine`] the follow-up sweep runs flat (exact
    /// optimum, as `plan_repair`); without it the sweep stays
    /// restricted and the gap bound is reported. Delegates to the flat
    /// [`Planner::plan_repair`] when hierarchical planning is not
    /// configured or the fabric has fewer than two regions.
    pub fn plan_repair_with_memo<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        ctx: &RepairContext<'_>,
        memo: &HierMemo,
    ) -> Result<Plan, PlanError> {
        if self.config.hier.is_none() {
            return self.plan_repair(net, translator, request, ctx);
        }
        for pinned in request.pinned.keys() {
            if self.spec.get_component(pinned).is_none() {
                return Err(PlanError::UnknownPinned(pinned.clone()));
            }
        }
        let graphs = enumerate_linkages_multi(
            &self.spec,
            &request.interfaces,
            &self.effective_limits(request),
        );
        if graphs.is_empty() {
            return Err(PlanError::NoImplementers(request.interfaces.join(" + ")));
        }
        let mut stats = PlanStats {
            graphs_enumerated: graphs.len(),
            ..PlanStats::default()
        };
        let old = ctx.old_plan;
        let survivors: Vec<NodeId> = old.placements.iter().map(|p| p.node).collect();
        let Some(setup) = self.hier_setup(
            net, translator, request, &graphs, memo, &survivors, &mut stats,
        ) else {
            return self.plan_repair(net, translator, request, ctx);
        };

        // Which chain positions did the damage touch? (Same
        // classification as the flat repair path.)
        let mut affected = vec![false; old.placements.len()];
        for (i, p) in old.placements.iter().enumerate() {
            if !net.node(p.node).up || ctx.dirty_nodes.contains(&p.node) {
                affected[i] = true;
            }
        }
        for edge in &old.edges {
            let touched = edge.route.links.iter().any(|l| ctx.dirty_links.contains(l))
                || edge.route.via.iter().any(|n| ctx.dirty_nodes.contains(n));
            if touched {
                affected[edge.from] = true;
                affected[edge.to] = true;
            }
        }
        if !request.colocate_root && (!ctx.dirty_nodes.is_empty() || !ctx.dirty_links.is_empty()) {
            affected[0] = true;
        }
        let chains_resolved = affected.iter().filter(|&&a| a).count();
        let chains_reused = affected.len() - chains_resolved;

        let incumbent = exhaustive::Incumbent::new();
        let fixed: Vec<Option<NodeId>> = affected
            .iter()
            .zip(&old.placements)
            .map(|(&aff, p)| (!aff).then_some(p.node))
            .collect();
        let seed = graphs
            .iter()
            .any(|g| g == &old.graph)
            .then(|| {
                exhaustive::search_restricted(
                    &setup.mapper,
                    &old.graph,
                    &mut stats,
                    &fixed,
                    &incumbent,
                )
            })
            .flatten();
        let seeded = seed.is_some();
        let cuts_before_full = stats.bound_prunes;
        let mut best: Option<Plan> =
            seed.map(|(assignment, eval)| assemble_plan(&old.graph, &assignment, eval));

        let cfg = self.config.hier.clone().unwrap_or_default();
        if cfg.refine {
            // Exact confirmation over the full network, warm-started by
            // the repair seed (identical guarantees to `plan_repair`).
            let mut carrier = best.take();
            if carrier.is_none() {
                // Nothing to refine against yet: run the plain sweep
                // through the restricted mapper first so the incumbent
                // is live, then confirm flat below.
                for graph in &graphs {
                    if !self.graph_possibly_feasible(graph, request) {
                        continue;
                    }
                    if let Some((assignment, eval)) = exhaustive::search_strictly_better(
                        &setup.mapper,
                        graph,
                        &mut stats,
                        &incumbent,
                    ) {
                        let better = carrier
                            .as_ref()
                            .is_none_or(|b| eval.objective_value < b.objective_value);
                        if better {
                            carrier = Some(assemble_plan(graph, &assignment, eval));
                        }
                    }
                }
            }
            if let Some(mut plan) = carrier {
                self.refine_sweep(
                    net, translator, request, &graphs, &incumbent, &mut plan, &mut stats,
                );
                best = Some(plan);
            } else {
                // Universe infeasible outright: exact flat repair.
                return self.plan_repair(net, translator, request, ctx);
            }
        } else {
            for graph in &graphs {
                if !self.graph_possibly_feasible(graph, request) {
                    stats.prunes += 1;
                    continue;
                }
                let Some((assignment, eval)) = exhaustive::search_strictly_better(
                    &setup.mapper,
                    graph,
                    &mut stats,
                    &incumbent,
                ) else {
                    continue;
                };
                let better = best
                    .as_ref()
                    .is_none_or(|b| eval.objective_value < b.objective_value);
                if better {
                    best = Some(assemble_plan(graph, &assignment, eval));
                }
            }
        }
        stats.route_rows_built = setup.rows_built();

        match best {
            Some(mut plan) => {
                if !stats.hier_refined {
                    stats.hier_gap_micro = gap_micro(
                        plan.objective_value,
                        self.objective_lower_bound(net, request, &graphs),
                    );
                }
                plan.stats = stats;
                plan.repair = Some(PlanRepairStats {
                    chains_resolved,
                    chains_reused,
                    seeded_bound_cuts: stats.bound_prunes - cuts_before_full,
                    seeded,
                });
                self.publish_stats(&plan.stats);
                self.publish_hier(&plan.stats, &setup.per_region);
                let tracer = &self.config.tracer;
                tracer.count("planner.repairs", 1);
                tracer.count("planner.repair_chains_resolved", chains_resolved as u64);
                tracer.count("planner.repair_chains_reused", chains_reused as u64);
                Ok(plan)
            }
            // The restricted repair found nothing; the flat path is the
            // completeness backstop.
            None => self.plan_repair(net, translator, request, ctx),
        }
    }

    /// Builds the composition universe and its mapper. `None` when the
    /// fabric has fewer than two regions (hierarchical planning adds
    /// nothing there).
    #[allow(clippy::too_many_arguments)]
    fn hier_setup<'a, T: PropertyTranslator + ?Sized>(
        &'a self,
        net: &'a Network,
        translator: &T,
        request: &'a ServiceRequest,
        graphs: &[LinkageGraph],
        memo: &HierMemo,
        extra_anchors: &[NodeId],
        stats: &mut PlanStats,
    ) -> Option<HierSetup<'a>> {
        let map = memo.region_map(net);
        if map.len() < 2 {
            return None;
        }
        let cfg = self.config.hier.clone().unwrap_or_default();
        let scoped = memo.scoped_routes(net);
        let rows_before = scoped.rows_built();
        let sig = memo.signature_id(request);

        // Anchors: nodes every candidate plan is tethered to.
        let mut anchors: Vec<NodeId> = vec![request.client_node, request.effective_origin()];
        anchors.extend(request.pinned.values().copied());
        anchors.extend(request.existing.iter().map(|e| e.node));
        anchors.extend(extra_anchors.iter().copied());
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
            self.config.load_model,
            self.config.objective,
        )
        .with_scoped_routes(Arc::clone(&scoped));

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
                let shortlist = segment_shortlist(
                    &mapper,
                    net,
                    &scoped,
                    region,
                    component,
                    cfg.shortlist,
                    cfg.rank_gateways,
                );
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
        Some(HierSetup {
            mapper,
            scoped,
            rows_before,
            per_region,
        })
    }

    /// The exact refinement sweep: strict-improvement search over the
    /// full network, warm-started by the composed incumbent. When it
    /// surfaces nothing, the composed plan *is* the flat optimum (the
    /// sweep's pruning only ever cuts completions that cannot strictly
    /// beat the incumbent).
    #[allow(clippy::too_many_arguments)]
    fn refine_sweep<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        graphs: &[LinkageGraph],
        incumbent: &exhaustive::Incumbent,
        plan: &mut Plan,
        stats: &mut PlanStats,
    ) {
        let table = Arc::new(RouteTable::build(net));
        stats.route_table_build_us = table.build_micros();
        let full_mapper = Mapper::new(
            &self.spec,
            net,
            translator,
            request,
            self.config.load_model,
            self.config.objective,
        )
        .with_route_table(table);
        let cuts_before = stats.bound_prunes;
        for graph in graphs {
            if !self.graph_possibly_feasible(graph, request) {
                continue;
            }
            let Some((assignment, eval)) =
                exhaustive::search_strictly_better(&full_mapper, graph, stats, incumbent)
            else {
                continue;
            };
            if eval.objective_value < plan.objective_value {
                *plan = assemble_plan(graph, &assignment, eval);
            }
        }
        stats.hier_refine_cuts = stats.bound_prunes - cuts_before;
        stats.hier_refined = true;
        stats.hier_gap_micro = 0;
    }

    /// Cheap admissible lower bound on the flat optimum across all
    /// viable graphs, for the unrefined gap report. For `MinLatency`
    /// (the default objective) it charges only compute time — every
    /// component's rate-weighted CPU cost on the fastest live node —
    /// ignoring routing, transfer, and penalties, all of which are
    /// non-negative. Other objectives conservatively bound at zero.
    fn objective_lower_bound(
        &self,
        net: &Network,
        request: &ServiceRequest,
        graphs: &[LinkageGraph],
    ) -> f64 {
        if self.config.objective != Objective::MinLatency {
            return 0.0;
        }
        let max_speed = net
            .nodes()
            .iter()
            .filter(|n| n.up)
            .map(|n| n.cpu_speed)
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let bound = graphs
            .iter()
            .filter(|g| self.graph_possibly_feasible(g, request))
            .map(|graph| {
                let rates = propagate_rates(&self.spec, graph, request.rate.max(1.0));
                (0..graph.len())
                    .map(|idx| {
                        let comp = self.spec.behavior_of(&graph.nodes[idx].component);
                        rates.fraction(idx) * comp.cpu_per_request_ms / max_speed
                    })
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        if bound.is_finite() {
            bound.max(0.0)
        } else {
            0.0
        }
    }

    /// Publishes hierarchical counters, including per-region plan-work
    /// attribution for `timeline_report` breakdowns.
    fn publish_hier(&self, stats: &PlanStats, per_region: &BTreeMap<String, RegionWork>) {
        let tracer = &self.config.tracer;
        tracer.count("planner.hier.plans", 1);
        tracer.count("planner.hier.segments", u64::from(stats.hier_segments));
        tracer.count("planner.hier.memo_hits", u64::from(stats.hier_memo_hits));
        tracer.gauge("planner.hier.universe", f64::from(stats.hier_universe));
        tracer.count("planner.hier.refine_cuts", stats.hier_refine_cuts);
        tracer.count("planner.hier.route_rows", stats.route_rows_built);
        if stats.hier_refined {
            tracer.count("planner.hier.refined", 1);
        } else {
            tracer.gauge("planner.hier.gap_micro", stats.hier_gap_micro as f64);
        }
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
/// `rank_gateways` gateways; ties and gateway-less regions fall back to
/// node-id order), truncated to `limit`.
fn segment_shortlist(
    mapper: &Mapper<'_>,
    net: &Network,
    scoped: &ScopedRoutes,
    region: &ps_net::Region,
    component: &str,
    limit: usize,
    rank_gateways: usize,
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
                .take(rank_gateways)
                .filter_map(|&gw| scoped.latency(net, gw, node))
                .map(|latency| latency.as_nanos())
                .min()
                .unwrap_or(0);
            (proximity, node)
        })
        .collect();
    fitting.sort_unstable();
    fitting.truncate(limit);
    fitting.into_iter().map(|(_, node)| node).collect()
}

/// Saturating micro-unit optimality gap: `(value − bound) · 1e6`.
fn gap_micro(value: f64, lower_bound: f64) -> u64 {
    let gap = (value - lower_bound).max(0.0) * 1e6;
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap as u64
    }
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

    #[test]
    fn gap_micro_saturates_and_floors() {
        assert_eq!(gap_micro(5.0, 7.0), 0);
        assert_eq!(gap_micro(7.0, 5.0), 2_000_000);
        assert_eq!(gap_micro(f64::MAX, 0.0), u64::MAX);
    }
}
