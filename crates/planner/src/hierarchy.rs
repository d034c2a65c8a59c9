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
//!    [`HierMemo`] keyed by (region, component, signature), validated
//!    against the region's epoch
//!    ([`Network::region_epoch`]) — a fault in one AS invalidates only
//!    that AS's entries, and concurrent connects / heal passes share
//!    the memo. The signature is what a shortlist reads of the solve:
//!    the registered spec and the request environment. Pins, the
//!    attachable instances and the client are not in it, so every
//!    connect of a registration shares the shortlists, however many
//!    instances earlier connects deployed.
//!
//! The union of those sets is the *composition universe*; the exact
//! branch-and-bound search then runs restricted to it (same evaluator,
//! same bounds, the same lazily built [`ScopedRoutes`] rows) and the
//! composed plan ships as it is. It is not
//! *provably* the flat optimum — a better host may sit outside every
//! shortlist — but it equals it bit for bit on every fabric measured,
//! which `tests/hier_equivalence.rs` and `ps-bench scale` assert (DESIGN.md
//! "Exactness, measured"). When the universe holds *no* feasible mapping
//! the solve falls back to the flat search (`Planner::solve`).

use crate::linkage::{enumerate_for, LinkageGraph, LinkageLimits};
use crate::mapping::{Configured, Mapper};
use crate::memo::FlowBook;
use crate::plan::{ExistingInstance, Plan, PlanStats, ServiceRequest};
use crate::planner::Planner;
use ps_net::{Network, NodeId, PropertyTranslator, RegionMap, ScopedRoutes};
use ps_spec::{Environment, ServiceSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
/// Recent plans the memo keeps as warm seeds. On the repo benchmark's
/// `connect_storm` four and eight do the same search (35 813 work
/// units over its cold connects), one does 2.8× more (101 598).
const RECENT_PLANS: usize = 4;

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
/// first, or a heal pass's redeploy) or a message route would otherwise
/// re-derive against an unchanged network. The run-time keeps one per
/// simulated world, shared by every connect, heal pass and message
/// route on it. Its parts and what retires them:
///
/// | part | key | retired by |
/// |---|---|---|
/// | lazy route rows ([`ScopedRoutes`]) | source node | carried to a later epoch on their next use, re-run when a change since touched them |
/// | completed plans | the registered spec (by `Arc` identity) and the request (by value), under one live-instance set named by the caller's stamp | any epoch change; a plan stored under another live set |
/// | segment shortlists | (region, component, registered spec by `Arc` identity, request environment by value) | that region's epoch ([`Network::region_epoch`]) |
/// | linkage graphs | (registered spec by `Arc` identity, interfaces, [`LinkageLimits`], degraded flag) | nothing: the enumeration reads no network |
/// | condition-1 admissions | (registered spec by `Arc` identity, request environment by value, component), then the host | that host's region epoch |
/// | flow book (property-flow outcomes) | (signature, network epoch, node count), then (component, host, each child's (host, provided-bindings id)) | any epoch change; a solve under another signature |
/// | region map | — | a node or link count change |
/// | recent plans (warm seeds) | — | revalidated at use |
///
/// The flow book holds one signature's outcomes at one epoch: a solve
/// takes it for its duration, and one under another signature or at
/// another epoch starts it over. So a flow outcome answers only the
/// solves that would compute it, with no invalidation beyond the
/// epoch, like a plan.
///
/// Every entry point runs the same epoch check first, so a plan of an
/// older epoch can never answer; a route row answers only once
/// certified exact for the current epoch, and shortlists carry their
/// region's epoch and outlive a change elsewhere in the fabric. The
/// recent plans are the last `RECENT_PLANS` distinct (linkage graph,
/// hosts) pairs solves on the memo returned, whatever their request or
/// epoch: they never answer, they only seed a solve's incumbent, and a
/// seed counts only once the solve's own mapper accepts it
/// (`Planner::solve`). So they need no invalidation, and they survive
/// the epoch change that empties the plan cache, which is exactly when
/// a heal pass plans.
///
/// Epochs tell apart the states of one network, not two networks: every
/// network starts at epoch 0 and bumps once per addition. So the memo is
/// bound to the first network it is handed by that network's
/// [`digest`](Network::digest), and a network of another digest — one
/// built otherwise, or grown by an addition since — starts it over. The
/// check is one comparison per entry point. What it cannot see is a
/// clone that diverged from its original by state changes alone (an up
/// flag, `node_mut`): same digest, and at an equal epoch the memo would
/// answer one from the other's rows. The run-time never does that: each
/// world owns its network and its memo.
#[derive(Debug, Default)]
pub struct HierMemo {
    inner: Mutex<MemoInner>,
}

#[derive(Debug, Default)]
struct MemoInner {
    /// The [`digest`](Network::digest) of the network every other part
    /// was derived from; `None` until the memo first meets one.
    network: Option<u64>,
    region_map: Option<Arc<RegionMap>>,
    /// The one route table, across every epoch: its rows carry
    /// themselves.
    scoped: Arc<ScopedRoutes>,
    /// The (epoch, node count) the cached plans were solved at.
    plans_at: Option<(u64, usize)>,
    plans: PlanCache,
    /// Distinct signatures seen: (registered spec, request environment)
    /// pairs, the spec compared by `Arc` identity and the environment by
    /// value. A shortlist or admissions key names one by its index here.
    signatures: Vec<(Arc<ServiceSpec>, Environment)>,
    /// (region index, component, signature index) → (region epoch at
    /// solve time, shortlist). Entries whose epoch no longer matches the
    /// live region are stale and recomputed on next use.
    shortlists: BTreeMap<ShortlistKey, (u64, Vec<NodeId>)>,
    /// The last distinct solved (graph, hosts) pairs, newest first.
    recent: Vec<Arc<RecentPlan>>,
    /// Every enumeration solves on the memo asked for, by its key.
    linkages: Vec<Linkages>,
    /// Condition-1 verdicts, per (signature index, component).
    admissions: Vec<Admissions>,
    /// Flow outcomes of one (signature, epoch, node count); taken by a
    /// solve for its duration.
    book: FlowBook,
    hits: u64,
    misses: u64,
}

/// Condition 1 for one component under one signature, per host: the
/// host's region epoch when decided, and what the component resolves
/// to there, its configuration and factors (`None`: a condition fails
/// or the configuration does not resolve). The verdict reads the registered spec and the request
/// environment (the signature), the component, and the host's
/// credentials as the registration's translator reads them; every change
/// to a host bumps its region epoch. Like the shortlists, the memo takes
/// a registration to be planned with one translator. Pins, requirements
/// and the attachable instances are read by neither, so requests that
/// differ only there share the verdicts.
#[derive(Debug)]
struct Admissions {
    signature: u32,
    component: String,
    by_node: Vec<Option<(u64, Option<Arc<Configured>>)>>,
}

/// A serving memo as one solve reads it: with the index of the solve's
/// signature (registered spec, request environment), the key of the
/// memo's per-signature tables (shortlists, condition-1 admissions).
#[derive(Clone, Copy)]
pub(crate) struct SignedMemo<'a> {
    pub memo: &'a HierMemo,
    pub signature: u32,
}

/// A plan a solve on the memo returned, as a warm seed keeps it: its
/// linkage graph and the host of each tree node.
#[derive(Debug, PartialEq)]
pub(crate) struct RecentPlan {
    pub graph: LinkageGraph,
    pub hosts: Vec<NodeId>,
}

type ShortlistKey = (u32, String, u32);

/// The linkage graphs a registered spec offers one request shape: what
/// `enumerate_for` returns for the key's four parts, a pure function of
/// them. The spec is compared by `Arc` identity and held, so its
/// address cannot be reused while the entry lives.
#[derive(Debug)]
struct Linkages {
    spec: Arc<ServiceSpec>,
    interfaces: Vec<String>,
    limits: LinkageLimits,
    degraded: bool,
    graphs: Arc<[LinkageGraph]>,
}

/// Completed plans of the current network epoch and one live-instance
/// set. A hit is exact: the planner is a pure function of the network
/// (fixed for the epoch), the registered spec, the request and the
/// attachable instances. An entry matches the request by value and the
/// spec by `Arc` identity: a spec behind an `Arc` is immutable, and the
/// entry holds its `Arc`, so the address cannot be reused while the
/// entry lives. A service re-registered under the same name brings a
/// new `Arc` and misses, even when the spec is equal.
///
/// The live set is named by the caller's *stamp*, a value that changes
/// whenever the set may have changed and is never reused. While the
/// (stamp, spec) pair equals `key`, the set is the one the entries were
/// planned against and nothing is collected or compared. A new pair
/// collects the set once and compares it by value: an equal set keeps
/// the entries, another one drops them.
#[derive(Debug, Default)]
struct PlanCache {
    /// The (stamp, registered spec) `live` was last collected for.
    key: Option<(u64, Arc<ServiceSpec>)>,
    /// The attachable instances every entry was planned against.
    live: Arc<[ExistingInstance]>,
    /// Entries bucketed by (client, rate bits) — a typed prefix of the
    /// request, so a lookup compares few whole requests.
    by_client: BTreeMap<(NodeId, u64), Vec<CachedPlan>>,
}

#[derive(Debug)]
struct CachedPlan {
    spec: Arc<ServiceSpec>,
    request: ServiceRequest,
    plan: Arc<Plan>,
}

impl PlanCache {
    /// Adopts `live`, collected for `spec` at `stamp`, as the set the
    /// entries answer for, dropping them when it differs by value.
    fn adopt(&mut self, stamp: u64, spec: &Arc<ServiceSpec>, live: Arc<[ExistingInstance]>) {
        if !Arc::ptr_eq(&self.live, &live) && self.live != live {
            self.by_client.clear();
            self.live = live;
        }
        self.key = Some((stamp, Arc::clone(spec)));
    }
}

impl MemoInner {
    /// Binds an unbound memo to the network of `digest`, and starts a
    /// memo bound to another one over.
    #[cold]
    fn bind(&mut self, digest: u64) {
        if self.network.is_some() {
            *self = MemoInner::default();
        }
        self.network = Some(digest);
    }

    /// The epoch check every entry point runs: when the network moved
    /// on, every cached plan is dropped. The route rows need no step
    /// here: each is carried, or re-run, on its own next use.
    fn sync(&mut self, net: &Network) -> Arc<ScopedRoutes> {
        let at = (net.epoch(), net.node_count());
        if self.plans_at != Some(at) {
            self.plans_at = Some(at);
            self.plans.by_client.clear();
        }
        Arc::clone(&self.scoped)
    }
}

impl HierMemo {
    /// An empty memo.
    pub fn new() -> Self {
        HierMemo::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemoInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memo bound to `net`: on its first network it records the
    /// network's [`digest`](Network::digest); a network of another
    /// digest starts it over, empty, as a new memo would be. O(1), so
    /// every entry point that is handed a network runs it.
    fn lock_on(&self, net: &Network) -> MutexGuard<'_, MemoInner> {
        let mut inner = self.lock();
        if inner.network != Some(net.digest()) {
            inner.bind(net.digest());
        }
        inner
    }

    /// The cached region decomposition, rebuilt when the network's
    /// structure (node/link counts) changed.
    pub fn region_map(&self, net: &Network) -> Arc<RegionMap> {
        let mut inner = self.lock_on(net);
        match &inner.region_map {
            Some(map) if map.is_current(net) => Arc::clone(map),
            _ => {
                let map = Arc::new(RegionMap::build(net));
                inner.region_map = Some(Arc::clone(&map));
                map
            }
        }
    }

    /// The memo's lazy route rows. A row asked at a later epoch than it
    /// was last exact at is carried across the changes since when they
    /// provably leave it exact, and re-run otherwise: a host crash or
    /// link flap leaves most rows untouched.
    pub fn scoped_routes(&self, net: &Network) -> Arc<ScopedRoutes> {
        self.lock_on(net).sync(net)
    }

    /// Source rows the memo has added since it was created, over every
    /// epoch — Dijkstra rows run and rows derived from a stub source's
    /// neighbour ([`ScopedRoutes::rows_built`]); a row carried into a
    /// later epoch costs nothing. Deterministic, so "a warm connect runs
    /// no Dijkstra" is checkable as a count.
    pub fn route_rows_built(&self) -> usize {
        self.lock().scoped.rows_built()
    }

    /// Of [`route_rows_built`](Self::route_rows_built), the rows that ran
    /// Dijkstra ([`ScopedRoutes::dijkstra_runs`]).
    pub fn route_dijkstra_runs(&self) -> usize {
        self.lock().scoped.dijkstra_runs()
    }

    /// Times the memo's route rows built their routing view rather than
    /// patching it from the network's journal
    /// ([`ScopedRoutes::view_builds`]): one for a network whose changes
    /// are all state changes read within the journal's reach.
    pub fn routing_view_builds(&self) -> usize {
        self.lock().scoped.view_builds()
    }

    /// The plan stored for exactly this registered `spec` and `request`
    /// at the network's current epoch, over the live-instance set the
    /// caller names by `stamp`: equal stamps must mean equal sets, and a
    /// stamp is never reused for another set. `live` collects the set;
    /// it runs only when (`stamp`, `spec`) is not the pair the cache was
    /// last stamped with. On a miss, returns the set to plan against
    /// and hand to [`store_plan`](Self::store_plan).
    pub fn cached_plan(
        &self,
        net: &Network,
        spec: &Arc<ServiceSpec>,
        request: &ServiceRequest,
        stamp: u64,
        live: impl FnOnce() -> Vec<ExistingInstance>,
    ) -> Result<Arc<Plan>, Arc<[ExistingInstance]>> {
        let mut inner = self.lock_on(net);
        inner.sync(net);
        let plans = &mut inner.plans;
        let key = plans.key.as_ref();
        if !key.is_some_and(|(at, under)| *at == stamp && Arc::ptr_eq(under, spec)) {
            plans.adopt(stamp, spec, live().into());
        }
        plans
            .by_client
            .get(&(request.client_node, request.rate.to_bits()))
            .and_then(|entries| {
                entries
                    .iter()
                    .find(|entry| Arc::ptr_eq(&entry.spec, spec) && entry.request.same_as(request))
            })
            .map(|entry| Arc::clone(&entry.plan))
            .ok_or_else(|| Arc::clone(&plans.live))
    }

    /// Stores a plan solved over `live`, the set
    /// [`cached_plan`](Self::cached_plan) returned for `stamp`. Plans
    /// stored under another live set could only answer if that exact set
    /// came back, so they are swept here: the cache holds one entry per
    /// distinct request of the current epoch and live set, however
    /// instances churn.
    pub fn store_plan(
        &self,
        net: &Network,
        spec: &Arc<ServiceSpec>,
        request: &ServiceRequest,
        stamp: u64,
        live: Arc<[ExistingInstance]>,
        plan: Arc<Plan>,
    ) {
        let mut inner = self.lock_on(net);
        inner.sync(net);
        inner.plans.adopt(stamp, spec, live);
        inner
            .plans
            .by_client
            .entry((request.client_node, request.rate.to_bits()))
            .or_default()
            .push(CachedPlan {
                spec: Arc::clone(spec),
                request: request.clone(),
                plan,
            });
    }

    /// Number of cached plans.
    pub fn cached_plans(&self) -> usize {
        self.lock().plans.by_client.values().map(Vec::len).sum()
    }

    /// The recent plans, newest first (the table above).
    pub(crate) fn recent_plans(&self) -> Vec<Arc<RecentPlan>> {
        self.lock().recent.clone()
    }

    /// Records a solved plan as the newest recent plan, moving an equal
    /// one to the front instead of keeping it twice.
    pub(crate) fn remember_plan(&self, plan: &Plan) {
        let recent = RecentPlan {
            graph: plan.graph.clone(),
            hosts: plan.placements.iter().map(|p| p.node).collect(),
        };
        let mut inner = self.lock();
        inner.recent.retain(|kept| **kept != recent);
        inner.recent.insert(0, Arc::new(recent));
        inner.recent.truncate(RECENT_PLANS);
    }

    /// The linkage graphs of registered `spec` for a request naming
    /// `interfaces`, `degraded` or not, within `limits`: enumerated on
    /// the first such request and shared by every later one.
    pub(crate) fn linkage_graphs(
        &self,
        spec: &Arc<ServiceSpec>,
        interfaces: &[String],
        limits: &LinkageLimits,
        degraded: bool,
    ) -> Arc<[LinkageGraph]> {
        let mut inner = self.lock();
        let known = inner.linkages.iter().find(|seen| {
            Arc::ptr_eq(&seen.spec, spec)
                && seen.degraded == degraded
                && seen.interfaces == interfaces
                && seen.limits == *limits
        });
        if let Some(seen) = known {
            return Arc::clone(&seen.graphs);
        }
        let graphs: Arc<[LinkageGraph]> = enumerate_for(spec, interfaces, limits, degraded).into();
        inner.linkages.push(Linkages {
            spec: Arc::clone(spec),
            interfaces: interfaces.to_vec(),
            limits: limits.clone(),
            degraded,
            graphs: Arc::clone(&graphs),
        });
        graphs
    }

    /// The memo bound to `net`, under the signature of (`spec`,
    /// `request`).
    pub(crate) fn signed(
        &self,
        net: &Network,
        spec: &Arc<ServiceSpec>,
        request: &ServiceRequest,
    ) -> SignedMemo<'_> {
        SignedMemo {
            memo: self,
            signature: self.signature_id(net, spec, request),
        }
    }

    /// Condition 1 for `component` under signature index `signature` on
    /// each of `hosts`: the hosts it admits, in order, with what it
    /// resolves to there. A verdict decided at the host's current region
    /// epoch is read back; any other is `decide`d and recorded.
    pub(crate) fn admitted(
        &self,
        net: &Network,
        signature: u32,
        component: &str,
        hosts: &[NodeId],
        mut decide: impl FnMut(NodeId) -> Option<Arc<Configured>>,
    ) -> Vec<(NodeId, Arc<Configured>)> {
        let mut inner = self.lock_on(net);
        let known = inner
            .admissions
            .iter()
            .position(|seen| seen.signature == signature && seen.component == component);
        let at = known.unwrap_or_else(|| {
            inner.admissions.push(Admissions {
                signature,
                component: component.to_owned(),
                by_node: vec![None; net.node_count()],
            });
            inner.admissions.len() - 1
        });
        let by_node = &mut inner.admissions[at].by_node;
        let admit = |&node: &NodeId| {
            let epoch = net.region_epoch(&net.node(node).site);
            let configured = match by_node.get_mut(node.0 as usize) {
                Some(Some((at, configured))) if *at == epoch => configured.clone(),
                Some(cell) => cell.insert((epoch, decide(node))).1.clone(),
                None => decide(node),
            };
            Some((node, configured?))
        };
        hosts.iter().filter_map(admit).collect()
    }

    /// The flow book for the solve under signature index `signature` on
    /// `net`, taken out of the memo for the solve's duration: the one the
    /// memo holds when it was filled at this signature, network epoch and
    /// node count, an empty one otherwise. A solve taking it meanwhile
    /// gets an empty one; [`put_book`](Self::put_book) hands it back.
    pub(crate) fn take_book(&self, net: &Network, signature: u32) -> FlowBook {
        let mut inner = self.lock_on(net);
        let key = (net.digest(), signature, net.epoch(), net.node_count());
        std::mem::take(&mut inner.book).for_key(key)
    }

    /// Hands a solve's flow book back to the memo.
    pub(crate) fn put_book(&self, book: FlowBook) {
        self.lock().book = book;
    }

    /// The index of the signature of (`spec`, `request`) among those
    /// seen on `net`, interning it on first sight. A signature is the
    /// registered spec, by `Arc` identity (a re-registration may change
    /// which hosts fit), and the request environment, by value: all a
    /// shortlist or a condition-1 verdict reads of the solve besides the
    /// network. The entry holds the spec's `Arc`, so its address cannot
    /// be reused while it lives. Interned under [`lock_on`](Self::lock_on),
    /// so an index is never handed out from a memo that the same solve
    /// then starts over for another network.
    fn signature_id(
        &self,
        net: &Network,
        spec: &Arc<ServiceSpec>,
        request: &ServiceRequest,
    ) -> u32 {
        let mut inner = self.lock_on(net);
        let env = &request.request_env;
        let known = inner
            .signatures
            .iter()
            .position(|(under, seen)| Arc::ptr_eq(under, spec) && seen == env);
        let at = known.unwrap_or_else(|| {
            inner.signatures.push((Arc::clone(spec), env.clone()));
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
        let mut inner = self.lock_on(net);
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
        self.lock_on(net).shortlists.insert(key, (epoch, nodes));
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
        self.lock_on(net)
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
        signed: SignedMemo<'a>,
        stats: &mut PlanStats,
    ) -> Option<HierSetup<'a>> {
        let (memo, sig) = (signed.memo, signed.signature);
        let map = memo.region_map(net);
        if map.len() < 2 {
            return None;
        }
        let scoped = memo.scoped_routes(net);

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
        )
        .with_admissions(Some(signed));

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
    /// attribution for `ps-bench timeline` breakdowns.
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
        .map(|node| (u64::MAX, node))
        .collect();
    // One row read per gateway for every host. A gateway asked only
    // about itself answers zero without its row.
    for &gw in region.gateways.iter().take(RANK_GATEWAYS) {
        if fitting.iter().all(|&(_, node)| node == gw) {
            fitting.iter_mut().for_each(|(proximity, _)| *proximity = 0);
            continue;
        }
        scoped.read_row(net, gw, |row| {
            for (proximity, node) in &mut fitting {
                if let Some(latency) = row.latency(*node) {
                    *proximity = (*proximity).min(latency.as_nanos());
                }
            }
        });
    }
    // A host no ranking gateway reaches ranks as zero.
    for (proximity, _) in &mut fitting {
        if *proximity == u64::MAX {
            *proximity = 0;
        }
    }
    fitting.sort_unstable();
    fitting.truncate(SHORTLIST);
    fitting.into_iter().map(|(_, node)| node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_spec::ResolvedBindings;

    /// A signature is the registered spec and the request environment:
    /// requests that differ in client, rate, pins, interfaces,
    /// requirements, degraded flag or attachable instances share one,
    /// another environment or a re-registered spec gets its own.
    #[test]
    fn signature_ignores_client_and_rate_but_not_env() {
        let net = Network::new();
        let memo = HierMemo::new();
        let spec = Arc::new(ServiceSpec::new("Mail"));
        let reregistered = Arc::new(ServiceSpec::new("Mail"));
        let sig = |spec, request| memo.signature_id(&net, spec, request);
        let base = ServiceRequest::new("Mail", NodeId(3)).rate(2.0);
        let vms = |r: ServiceRequest, n| {
            r.existing_instance("ViewMailServer", NodeId(n), ResolvedBindings::new())
        };
        let shared = [
            ServiceRequest::new("Mail", NodeId(9)).rate(7.5),
            base.clone().pin("MailServer", NodeId(1)),
            base.clone().also_needs("Admin"),
            base.clone().require("Confidential", true),
            base.clone().degraded_mode(),
            vms(base.clone(), 4),
            vms(vms(base.clone(), 5), 4),
        ];
        for request in &shared {
            assert_eq!(sig(&spec, &base), sig(&spec, request), "{request:?}");
        }

        let env = Environment::new().with("TrustLevel", 2i64);
        let elsewhere = base.clone().env(env.clone());
        assert_ne!(sig(&spec, &base), sig(&spec, &elsewhere));
        let attached = vms(elsewhere.clone(), 4);
        assert_eq!(sig(&spec, &elsewhere), sig(&spec, &attached));
        assert_ne!(sig(&spec, &base), sig(&reregistered, &base));
        assert_ne!(sig(&spec, &elsewhere), sig(&reregistered, &elsewhere));
    }

    /// A signature is numbered on the memo bound to the solve's network:
    /// a network of another digest starts the memo over first, so an
    /// index handed out there never names another signature's
    /// shortlists and verdicts once the memo is rebound.
    #[test]
    fn signatures_are_numbered_on_the_rebound_memo() {
        let a = Network::new();
        let mut b = Network::new();
        b.add_node("a", "as0", 1.0, ps_net::Credentials::new());
        let memo = HierMemo::new();
        let specs: Vec<_> = (0..3).map(|_| Arc::new(ServiceSpec::new("Mail"))).collect();
        let request = ServiceRequest::new("Mail", NodeId(0));
        let id = |net, spec| memo.signature_id(net, spec, &request);
        assert_eq!([id(&a, &specs[0]), id(&a, &specs[1])], [0, 1]);
        let on_b = [id(&b, &specs[1]), id(&b, &specs[0]), id(&b, &specs[2])];
        assert_eq!(on_b, [0, 1, 2]);
    }

    /// Condition-1 verdicts are read back under their own signature and
    /// component only, and only while the host's region epoch is the one
    /// they were decided at: a credential change re-decides the hosts of
    /// its region and no other.
    #[test]
    fn admissions_are_read_back_only_at_their_region_epoch() {
        let mut net = Network::new();
        let none = ps_net::Credentials::new;
        let (a, b) = (
            net.add_node("a", "as0", 1.0, none()),
            net.add_node("b", "as1", 1.0, none()),
        );
        let memo = HierMemo::new();
        let decided = std::cell::RefCell::new(Vec::new());
        let fits = Arc::new(Configured::new(ps_spec::ComponentConfig {
            component: "MailServer".into(),
            implements: Vec::new(),
            requires: Vec::new(),
            factors: ResolvedBindings::new(),
        }));
        let admitted = |net: &Network, signature, component| {
            let decide = |node| {
                decided.borrow_mut().push(node);
                (node == a).then(|| Arc::clone(&fits))
            };
            let hosts = memo.admitted(net, signature, component, &[a, b], decide);
            hosts.into_iter().map(|(node, _)| node).collect::<Vec<_>>()
        };
        let decisions = || std::mem::take(&mut *decided.borrow_mut());
        assert_eq!(admitted(&net, 0, "MailServer"), vec![a]);
        assert_eq!(decisions(), vec![a, b]);
        assert_eq!(admitted(&net, 0, "MailServer"), vec![a]);
        assert_eq!(decisions(), vec![]);
        admitted(&net, 1, "MailServer");
        admitted(&net, 0, "ViewMailServer");
        assert_eq!(decisions(), vec![a, b, a, b]);

        net.node_mut(b).credentials = none().with("Hosting", true);
        assert_eq!(admitted(&net, 0, "MailServer"), vec![a]);
        assert_eq!(decisions(), vec![b]);
    }

    /// Shortlists are keyed on the signature's value, not on a hash of
    /// it: requests with another request environment, or planning
    /// another registration of an equal spec, get their own entries;
    /// requests that differ only outside the signature (client, rate,
    /// pins, requirements, attachable instances) share one.
    #[test]
    fn shortlists_are_shared_by_equal_signatures_only() {
        let mut net = Network::new();
        let host = net.add_node("a", "as0", 1.0, ps_net::Credentials::new());
        let memo = HierMemo::new();
        let spec = Arc::new(ServiceSpec::new("Mail"));
        let reregistered = Arc::new(ServiceSpec::new("Mail"));
        let plain = ServiceRequest::new("Mail", NodeId(3));
        let trusted = plain
            .clone()
            .env(Environment::new().with("TrustLevel", 4i64));
        let elsewhere = ServiceRequest::new("Mail", NodeId(9))
            .rate(7.5)
            .pin("MailServer", host)
            .require("Confidential", true)
            .existing_instance("ViewMailServer", host, ResolvedBindings::new());
        let id = |spec, request| memo.signature_id(&net, spec, request);
        assert_ne!(id(&spec, &plain), id(&spec, &trusted));
        assert_eq!(id(&spec, &plain), id(&spec, &elsewhere));
        assert_ne!(id(&spec, &plain), id(&reregistered, &plain));

        let key = |spec, request| (0, "MailServer".to_owned(), id(spec, request));
        memo.store_shortlist(&net, "as0", key(&spec, &plain), vec![host]);
        assert_eq!(memo.shortlist(&net, "as0", &key(&spec, &trusted)), None);
        assert_eq!(
            memo.shortlist(&net, "as0", &key(&reregistered, &plain)),
            None
        );
        assert_eq!(
            memo.shortlist(&net, "as0", &key(&spec, &elsewhere)),
            Some(vec![host])
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }
}
