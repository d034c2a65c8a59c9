//! Mapping evaluation: the three validity conditions of Section 3.3 plus
//! objective computation, shared by the planner's search and the
//! replanner's still-valid check.
//!
//! A *mapping* assigns each linkage-graph node to a network node. The
//! [`Mapper`] checks:
//!
//! 1. every component's installation conditions hold in its node's
//!    environment (and its `Factors` resolve there);
//! 2. each linkage's implemented properties — after property flow and
//!    route transformation — satisfy the required ones;
//! 3. the request traffic derived from RRFs fits component capacities,
//!    node CPUs, and link bandwidths;
//!
//! and computes the objective (expected latency, deployment cost, or
//! sustainable rate).

use crate::compat::{effective_provided, satisfies, transform_along};
use crate::hierarchy::SignedMemo;
use crate::linkage::LinkageGraph;
use crate::load::{propagate_rates, RatePlan};
use crate::memo::{CandidateSet, Identity, PlanMemo};
use crate::plan::{Objective, PlanEdge, ServiceRequest};
use ps_net::{Network, NodeId, PropertyTranslator, Route, RouteMetrics, ScopedRoutes};
use ps_spec::condition::all_hold;
use ps_spec::{Component, Environment, ResolvedBindings, ServiceSpec};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Fixed per-component startup charge used by the deployment-cost
/// objective (milliseconds). The paper reports roughly 10 seconds of
/// one-time costs for a handful of components including planning; the
/// startup share is on the order of a second per component.
pub const STARTUP_COST_MS: f64 = 500.0;

/// Weight of the deployment-cost term in the `MinLatency` objective: it
/// breaks latency ties toward reusing existing instances and cheaper
/// deployments, deterministically. The evaluator and the search's cut
/// ([`crate::exhaustive`]) both read it.
pub(crate) const LATENCY_TIE_BREAK: f64 = 1e-9;

/// Objective penalty per placement on an avoided host
/// ([`ServiceRequest::avoided`](crate::ServiceRequest)). Large enough to
/// dominate any realistic latency/cost term, so an avoided host is
/// chosen only when no mapping without it is feasible — down-weighting,
/// not exclusion (pinned components on avoided hosts still plan).
pub const AVOID_PENALTY: f64 = 1e6;

/// A route together with the environment sequence its traffic traverses.
#[derive(Debug, Clone)]
pub struct RouteInfo {
    /// The network route.
    pub route: Route,
    /// Environments (links + intermediate nodes) along it, in order.
    pub envs: Vec<Environment>,
}

/// The evaluation result for a complete, feasible mapping.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Objective value (lower is better).
    pub objective_value: f64,
    /// Expected client-perceived latency, ms.
    pub latency_ms: f64,
    /// Deployment cost, ms.
    pub cost_ms: f64,
    /// Sustainable client rate, req/s.
    pub sustainable_rate: f64,
    /// Effective provided properties per graph node.
    pub provided: Vec<ResolvedBindings>,
    /// Resolved factors per graph node.
    pub factors: Vec<ResolvedBindings>,
    /// Whether each graph node maps onto a pinned/existing instance.
    pub preexisting: Vec<bool>,
    /// Plan edges (graph order, one per non-root node).
    pub edges: Vec<PlanEdge>,
}

/// One lazily translated environment of a [`Mapper`], by index into the
/// network's node or link list.
#[derive(Clone, Copy)]
enum EnvSlot {
    Host(usize),
    Hop(usize),
    Link(usize),
}

/// The shared mapping evaluator.
pub struct Mapper<'a> {
    /// The service specification.
    pub spec: &'a ServiceSpec,
    /// The network graph.
    pub net: &'a Network,
    /// The client request being planned.
    pub request: &'a ServiceRequest,
    /// Optimization objective.
    pub objective: Objective,
    /// Translated environments, derived on a slot's first read: a
    /// planning call reads a few dozen of a fabric's thousands. A node
    /// has two — as a host (request context merged) and as a hop.
    node_envs: Vec<OnceCell<Environment>>,
    link_envs: Vec<OnceCell<Environment>>,
    mid_envs: Vec<OnceCell<Environment>>,
    translate: Box<dyn Fn(EnvSlot) -> Environment + 'a>,
    /// Candidate sets, routes, interned bindings and flow verdicts
    /// learned during this planning call (see [`crate::memo`]).
    pub(crate) memo: RefCell<PlanMemo>,
    /// The per-source routing rows every route question is answered
    /// from, built on a source's first question (usually the serving
    /// memo's, shared with every other solve of the network epoch).
    routes: Arc<ScopedRoutes>,
    /// When set, condition-1 candidate enumeration is restricted to
    /// these nodes instead of the whole network (the hierarchical
    /// planner's composition universe). Must stay fixed for the
    /// mapper's lifetime — the memo assumes it.
    universe: Option<Vec<NodeId>>,
    /// Where condition-1 verdicts outlive the call: the serving memo's
    /// admissions under the solve's signature. `None` for a standalone
    /// plan, which decides every host afresh.
    admissions: Option<SignedMemo<'a>>,
}

impl<'a> Mapper<'a> {
    /// Builds a mapper reading its routes from `routes`, which must be
    /// current for `net`. Credentials are translated per node and link
    /// the first time a search or a route reads them.
    pub fn new<T: PropertyTranslator + ?Sized>(
        spec: &'a ServiceSpec,
        net: &'a Network,
        translator: &'a T,
        request: &'a ServiceRequest,
        objective: Objective,
        routes: Arc<ScopedRoutes>,
    ) -> Self {
        let translate = move |slot: EnvSlot| {
            let mut env = match slot {
                EnvSlot::Host(node) => {
                    let mut env = translator.node_env(&net.nodes()[node]);
                    env.merge(&request.request_env);
                    env
                }
                EnvSlot::Hop(node) => translator.node_env(&net.nodes()[node]),
                EnvSlot::Link(link) => translator.link_env(&net.links()[link]),
            };
            spec.derived.extend(&mut env);
            env
        };
        let unread = |slots: usize| vec![OnceCell::new(); slots];
        Mapper {
            spec,
            net,
            request,
            objective,
            node_envs: unread(net.node_count()),
            link_envs: unread(net.links().len()),
            mid_envs: unread(net.node_count()),
            translate: Box::new(translate),
            memo: RefCell::new(PlanMemo::new(net.node_count())),
            routes,
            universe: None,
            admissions: None,
        }
    }

    /// Reads and records condition-1 verdicts in `signed`'s memo, under
    /// its signature, instead of deciding every candidate afresh.
    pub(crate) fn with_admissions(mut self, signed: Option<SignedMemo<'a>>) -> Self {
        self.admissions = signed;
        self
    }

    /// Restricts condition-1 candidate enumeration to `nodes` (the
    /// hierarchical planner's composition universe: anchors, corridor,
    /// gateways, and memoized per-region shortlists). Pinned and
    /// root-colocated placements are unaffected — they are forced to a
    /// specific node regardless of the universe. Must be set before the
    /// first candidate or route query and never changed: the memo's
    /// candidate sets and dense route index assume a fixed universe.
    pub fn with_universe(mut self, mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        // Every host a search can place on or charge a route to: the
        // universe plus the forced placements and the two fixed route
        // endpoints.
        let mut domain = nodes.clone();
        domain.extend([self.request.client_node, self.request.effective_origin()]);
        domain.extend(self.request.pinned.values().copied());
        domain.sort_unstable();
        domain.dedup();
        self.memo.get_mut().index_routes_by(&domain);
        self.universe = Some(nodes);
        self
    }

    /// Deployment environment of a network node (credentials translated,
    /// request context merged).
    pub fn node_env(&self, node: NodeId) -> &Environment {
        self.env(EnvSlot::Host(node.0 as usize))
    }

    /// The environment of `slot`, translated on its first read.
    fn env(&self, slot: EnvSlot) -> &Environment {
        let cell = match slot {
            EnvSlot::Host(node) => &self.node_envs[node],
            EnvSlot::Hop(node) => &self.mid_envs[node],
            EnvSlot::Link(link) => &self.link_envs[link],
        };
        cell.get_or_init(|| (self.translate)(slot))
    }

    /// The objective penalty for placing on `node`: [`AVOID_PENALTY`]
    /// when the request down-weights it, zero otherwise. Added per
    /// placement by the evaluator; the search's cut charges it for every
    /// node already placed and leaves the unplaced ones' out, so the
    /// bound stays admissible ([`crate::exhaustive`]).
    pub fn avoidance_penalty(&self, node: NodeId) -> f64 {
        if self.request.avoided.contains(&node) {
            AVOID_PENALTY
        } else {
            0.0
        }
    }

    /// Latency, bottleneck and locality of the route between two nodes —
    /// all the cost models read — memoized in the plan memo's dense
    /// table. Read off `from`'s [`ScopedRoutes`] row by a
    /// predecessor-chain walk that materializes nothing.
    pub fn route_metrics(&self, from: NodeId, to: NodeId) -> Option<RouteMetrics> {
        let lookup = || self.routes.metrics(self.net, from, to);
        let mut memo = self.memo.borrow_mut();
        match memo.route_cell(from, to) {
            Some(cell) => *cell.metrics.get_or_insert_with(lookup),
            None => lookup(),
        }
    }

    /// The materialized route between two nodes together with the
    /// environments along it — what a property-flow check transforms
    /// bindings through and a plan edge records. Memoized beside the
    /// pair's metrics; cost models should ask
    /// [`route_metrics`](Self::route_metrics) instead.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Rc<RouteInfo>> {
        let mut memo = self.memo.borrow_mut();
        let mut cell = memo.route_cell(from, to);
        if let Some(cell) = &cell {
            if cell.info.is_some() || cell.metrics == Some(None) {
                return cell.info.clone();
            }
        }
        let info = self.routes.route(self.net, from, to).map(|route| {
            Rc::new(RouteInfo {
                envs: self.envs_along(&route),
                route,
            })
        });
        if let Some(cell) = &mut cell {
            cell.metrics = Some(info.as_ref().map(|info| info.route.metrics()));
            cell.info = info.clone();
        }
        info
    }

    fn envs_along(&self, route: &Route) -> Vec<Environment> {
        let mut envs = Vec::with_capacity(route.links.len() + route.via.len());
        let mut via = route.via.iter();
        for &link in &route.links {
            envs.push(self.env(EnvSlot::Link(link.0 as usize)).clone());
            if let Some(&mid) = via.next() {
                envs.push(self.env(EnvSlot::Hop(mid.0 as usize)).clone());
            }
        }
        envs
    }

    /// Condition 1: nodes where `component` may be instantiated for this
    /// request. Respects pinning and the root-at-client rule. Results
    /// are memoized per (component, forced-node) pair within this
    /// mapper's lifetime and handed out as a shared slice — graphs
    /// emitted by one enumeration share components, so the full-network
    /// filter runs once per component.
    pub fn candidates(&self, graph: &LinkageGraph, idx: usize) -> Rc<[NodeId]> {
        self.candidate_set(graph, idx).nodes
    }

    /// [`candidates`](Self::candidates) as the plan memo holds them:
    /// with the set's id (the component's part of a flow-verdict key)
    /// and each candidate's instance-identity entry.
    pub(crate) fn candidate_set(&self, graph: &LinkageGraph, idx: usize) -> CandidateSet {
        let name = &graph.nodes[idx].component;
        let forced: Option<NodeId> = if let Some(&pin) = self.request.pinned.get(name) {
            Some(pin)
        } else if idx == 0 && self.request.colocate_root {
            Some(self.request.client_node)
        } else {
            None
        };
        if let Some(hit) = self.memo.borrow().candidate_set(name, forced) {
            return hit;
        }
        // Down nodes never host components: a pinned-on-down-node
        // request yields no candidates and the plan comes back infeasible.
        let up = |node: &NodeId| self.net.node(*node).up;
        let hosts: Vec<NodeId> = match (forced, &self.universe) {
            (Some(node), _) => std::iter::once(node).filter(up).collect(),
            (None, Some(universe)) => universe.iter().copied().filter(up).collect(),
            (None, None) => self.net.node_ids().filter(up).collect(),
        };
        let admitted: Vec<(NodeId, ResolvedBindings)> =
            match (self.spec.get_component(name), self.admissions) {
                (None, _) => Vec::new(),
                (Some(decl), Some(signed)) => {
                    let decide = |node| self.factors_on(decl, node);
                    signed
                        .memo
                        .admitted(self.net, signed.signature, name, &hosts, decide)
                }
                (Some(decl), None) => hosts
                    .into_iter()
                    .filter_map(|node| Some((node, self.factors_on(decl, node)?)))
                    .collect(),
            };
        let request = self.request;
        let pinned = request.pinned.get(name);
        let mut memo = self.memo.borrow_mut();
        let (nodes, identity) = admitted
            .into_iter()
            .map(|(node, factors)| {
                let attachable = pinned == Some(&node)
                    || request
                        .existing
                        .iter()
                        .any(|e| e.node == node && e.component == *name);
                let identity = Identity {
                    // Only an attachable host can match factors too.
                    preexisting: attachable && request.is_preexisting(name, node, &factors),
                    attachable,
                    class: memo.factor_class(factors),
                };
                (node, identity)
            })
            .unzip();
        memo.add_candidate_set(name, forced, nodes, identity)
    }

    /// The factors `decl` resolves to on `node`, when its conditions
    /// hold there and its configuration resolves (condition 1).
    fn factors_on(&self, decl: &Component, node: NodeId) -> Option<ResolvedBindings> {
        let env = self.node_env(node);
        if !all_hold(&decl.conditions, env) {
            return None;
        }
        decl.configure(env).ok().map(|config| config.factors)
    }

    /// Whether `decl`'s conditions hold and its factors resolve on `node`.
    pub fn component_fits(&self, decl: &Component, node: NodeId) -> bool {
        self.factors_on(decl, node).is_some()
    }

    /// Computes the effective provided properties of graph node `idx`
    /// placed on `node`, given each child's effective provided map, and
    /// checks condition 2 on every child edge; also returns the resolved
    /// factors of the placement, which the search stashes so the final
    /// evaluation does not have to re-run configuration. `None` means
    /// infeasible.
    pub fn flow_and_factors_at(
        &self,
        graph: &LinkageGraph,
        idx: usize,
        node: NodeId,
        assignment: &[Option<NodeId>],
        provided: &[Option<Rc<ResolvedBindings>>],
    ) -> Option<(ResolvedBindings, ResolvedBindings)> {
        let decl = self.spec.get_component(&graph.nodes[idx].component)?;
        let env = self.node_env(node);
        let config = decl.configure(env).ok()?;

        let mut upstream = Vec::with_capacity(graph.nodes[idx].children.len());
        for (req_idx, &(_, child)) in graph.nodes[idx].children.iter().enumerate() {
            let child_node = assignment[child]?;
            let child_provided = provided[child].as_ref()?;
            let info = self.route(node, child_node)?;
            let transformed = transform_along(self.spec, child_provided, &info.envs);
            let required = config.requires.get(req_idx)?;
            if !satisfies(self.spec, &transformed, &required.values) {
                return None;
            }
            upstream.push(transformed);
        }

        // Merge all implements clauses' explicit bindings.
        let mut explicit = ResolvedBindings::new();
        for clause in &config.implements {
            for (prop, value) in clause.values.iter() {
                explicit.insert(prop, value.clone());
            }
        }
        Some((effective_provided(&explicit, &upstream), config.factors))
    }

    /// Full evaluation of a complete assignment: all three conditions plus
    /// the objective. `None` means the mapping is infeasible. Checks
    /// condition 1 on every placement, runs the bottom-up property flow
    /// the search's descent runs, and hands both to the one evaluator
    /// body, [`evaluate_reusing_flow`](Self::evaluate_reusing_flow).
    pub fn evaluate(&self, graph: &LinkageGraph, assignment: &[NodeId]) -> Option<Evaluation> {
        for (tree_node, &node) in graph.nodes.iter().zip(assignment) {
            if !self.component_fits(self.spec.get_component(&tree_node.component)?, node) {
                return None;
            }
        }
        let placed: Vec<Option<NodeId>> = assignment.iter().copied().map(Some).collect();
        let mut provided = vec![None; graph.len()];
        let mut factors = vec![None; graph.len()];
        for idx in graph.bottom_up_order() {
            let (flowed, resolved) =
                self.flow_and_factors_at(graph, idx, assignment[idx], &placed, &provided)?;
            provided[idx] = Some(Rc::new(flowed));
            factors[idx] = Some(Rc::new(resolved));
        }
        self.evaluate_reusing_flow(graph, assignment, &provided, &factors, &self.rates(graph))
    }

    /// The evaluator body: conditions 2 and 3 and the objective of a
    /// complete assignment, given what a search already computed during
    /// its descent: the per-node effective provided properties and
    /// resolved factors (one [`Mapper::flow_and_factors_at`] call per
    /// node) and the graph's [`RatePlan`] (from [`Mapper::rates`]). The
    /// caller must have produced `provided`/`factors` by exactly that
    /// flow for exactly this assignment, with every assigned node drawn
    /// from [`Mapper::candidates`] (which enforces condition 1), as
    /// [`evaluate`](Self::evaluate) does.
    pub fn evaluate_reusing_flow(
        &self,
        graph: &LinkageGraph,
        assignment: &[NodeId],
        provided: &[Option<Rc<ResolvedBindings>>],
        factors: &[Option<Rc<ResolvedBindings>>],
        rates: &RatePlan,
    ) -> Option<Evaluation> {
        let n = graph.len();
        debug_assert_eq!(assignment.len(), n);
        debug_assert_eq!(rates.node_rate.len(), n);
        debug_assert!((0..n).all(|idx| {
            let decl = self.spec.get_component(&graph.nodes[idx].component);
            decl.is_some_and(|d| self.component_fits(d, assignment[idx]))
        }));
        // Every placement's flow ran before evaluating; `?` degrades a
        // violated invariant to "infeasible" instead of panicking
        // mid-plan (ps-lint P001).
        let unshare = |artifacts: &[Option<Rc<ResolvedBindings>>]| {
            debug_assert_eq!(artifacts.len(), n);
            artifacts
                .iter()
                .map(|a| a.as_ref().map(|r| (**r).clone()))
                .collect::<Option<Vec<_>>>()
        };
        let factors = unshare(factors)?;

        // Instance-identity rules. (a) Two graph nodes mapped onto the
        // same (component, node) would deploy as a single instance linked
        // to itself — invalid. (b) A plan may create at most one *new*
        // instance per (component, factors) configuration: duplicate
        // same-configured instances hold the same state, so their
        // declared RRFs must not compound; additional occurrences are
        // only valid as attachments to pinned/existing instances (which
        // is exactly how the paper's Seattle deployment chains onto San
        // Diego's pre-deployed view server).
        let preexisting: Vec<bool> = (0..n)
            .map(|idx| {
                self.request.is_preexisting(
                    &graph.nodes[idx].component,
                    assignment[idx],
                    &factors[idx],
                )
            })
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if graph.nodes[i].component != graph.nodes[j].component {
                    continue;
                }
                if assignment[i] == assignment[j] {
                    return None;
                }
                if factors[i] == factors[j] {
                    // Two fresh same-configured instances never make
                    // sense (nothing distinguishes them to the planner).
                    if !preexisting[i] && !preexisting[j] {
                        return None;
                    }
                    // For *data views*, even an existing same-configured
                    // replica adds nothing: it caches the same state, so
                    // its declared RRF must not compound. Distinctly
                    // factored views (Seattle's trust-2 onto San Diego's
                    // trust-3) remain chainable.
                    let is_data_view = self
                        .spec
                        .get_component(&graph.nodes[i].component)
                        .is_some_and(|c| c.is_data_view());
                    if is_data_view {
                        return None;
                    }
                }
            }
        }

        // Condition 2 held along the descent's property flow.
        let provided = unshare(provided)?;

        // The client's own requirements on the requested interface are a
        // linkage like any other: the root's provided properties degrade
        // over the client -> root route before the check (a remote root
        // across an insecure link cannot satisfy a confidentiality
        // requirement).
        {
            let info = self.route(self.request.client_node, assignment[0])?;
            let at_client = transform_along(self.spec, &provided[0], &info.envs);
            if !satisfies(self.spec, &at_client, &self.request.required) {
                return None;
            }
        }

        // Edges, loads, latency.
        let parents = graph.parents();
        let mut edges = Vec::new();
        let mut latency_ms = 0.0;
        // BTreeMaps (not HashMaps): the capacity checks below iterate
        // them, and keyed ordering keeps the walk deterministic
        // (ps-lint D001). They stay tiny — one entry per touched
        // node/link of a single candidate mapping.
        let mut link_bits: BTreeMap<u32, f64> = BTreeMap::new();
        let mut node_cpu: BTreeMap<u32, f64> = BTreeMap::new();
        let mut sustainable = f64::INFINITY;
        let root_rate = rates.node_rate[0];

        for idx in 0..n {
            let comp = self.spec.behavior_of(&graph.nodes[idx].component);
            let frac = rates.fraction(idx);
            let node = assignment[idx];
            let speed = self.net.node(node).cpu_speed;
            latency_ms += frac * comp.cpu_per_request_ms / speed;

            // Component capacity.
            if let Some(cap) = comp.capacity {
                if rates.node_rate[idx] > cap {
                    return None;
                }
                if frac > 0.0 {
                    sustainable = sustainable.min(cap / frac);
                }
            }
            // Node CPU load: accumulates across every component mapped
            // to the node, checked once the whole mapping is charged.
            *node_cpu.entry(node.0).or_insert(0.0) +=
                rates.node_rate[idx] * comp.cpu_per_request_ms / 1000.0;
            if frac > 0.0 && comp.cpu_per_request_ms > 0.0 {
                sustainable = sustainable.min(speed * 1000.0 / (frac * comp.cpu_per_request_ms));
            }

            // Edge into this node from its parent.
            if let Some(parent) = parents[idx] {
                let info = self.route(assignment[parent], node)?;
                let bits =
                    rates.edge_bits_per_sec(idx, comp.bytes_per_request, comp.bytes_per_response);
                for &l in &info.route.links {
                    *link_bits.entry(l.0).or_insert(0.0) += bits;
                }
                if frac > 0.0 && info.route.bottleneck_bps.is_finite() {
                    let per_req_bits =
                        (comp.bytes_per_request + comp.bytes_per_response) as f64 * 8.0;
                    if per_req_bits > 0.0 {
                        sustainable =
                            sustainable.min(info.route.bottleneck_bps / (frac * per_req_bits));
                    }
                }
                let bytes = (comp.bytes_per_request + comp.bytes_per_response) as f64;
                latency_ms += frac * info.route.metrics().rtt_ms(bytes);
                let interface = graph.nodes[parent]
                    .children
                    .iter()
                    .find(|&&(_, c)| c == idx)
                    .map(|(i, _)| i.clone())
                    .unwrap_or_default();
                edges.push(PlanEdge {
                    from: parent,
                    to: idx,
                    interface,
                    route: info.route.clone(),
                    rate: rates.edge_rate[idx],
                });
            }
        }

        // The implicit client -> root edge: the client submits its
        // requests from its own node; when the root is colocated this is
        // free, otherwise it costs a round trip per request.
        {
            let root_behavior = self.spec.behavior_of(&graph.nodes[0].component);
            let route = self.route_metrics(self.request.client_node, assignment[0])?;
            if !route.is_local() {
                let bytes =
                    (root_behavior.bytes_per_request + root_behavior.bytes_per_response) as f64;
                latency_ms += route.rtt_ms(bytes);
                if bytes > 0.0 && route.bottleneck_bps.is_finite() {
                    sustainable = sustainable.min(route.bottleneck_bps / (bytes * 8.0));
                }
            }
        }

        // Accumulated capacity checks.
        for (&node, &load) in &node_cpu {
            if load > self.net.node(NodeId(node)).cpu_speed {
                return None;
            }
        }
        for (&link, &bits) in &link_bits {
            if bits > self.net.link(ps_net::LinkId(link)).bandwidth_bps {
                return None;
            }
        }
        if sustainable < root_rate && self.request.rate > 0.0 {
            return None;
        }

        // Deployment cost.
        let origin = self.request.effective_origin();
        let mut cost_ms = 0.0;
        for (idx, tree_node) in graph.nodes.iter().enumerate() {
            if preexisting[idx] {
                continue;
            }
            let comp = self.spec.behavior_of(&tree_node.component);
            let node = assignment[idx];
            cost_ms += self.transfer_ms(origin, node, comp.code_size) + STARTUP_COST_MS;
        }

        let objective_value = match self.objective {
            Objective::MinLatency => latency_ms + LATENCY_TIE_BREAK * cost_ms,
            Objective::MinCost => cost_ms,
            Objective::MaxCapacity => -sustainable,
            Objective::Weighted {
                latency_weight,
                cost_weight,
            } => latency_weight * latency_ms + cost_weight * cost_ms,
        } + assignment
            .iter()
            .map(|node| self.avoidance_penalty(*node))
            .sum::<f64>();

        Some(Evaluation {
            objective_value,
            latency_ms,
            cost_ms,
            sustainable_rate: sustainable,
            provided,
            factors,
            preexisting,
            edges,
        })
    }

    /// Milliseconds to ship `code_size` bytes of component code from
    /// `origin` to `node`: one-way latency plus serialization at the
    /// bottleneck; zero when local or unreachable.
    pub(crate) fn transfer_ms(&self, origin: NodeId, node: NodeId, code_size: u64) -> f64 {
        self.route_metrics(origin, node)
            .map_or(0.0, |route| route.transfer_ms(code_size))
    }

    /// Rates for a graph under this request.
    pub fn rates(&self, graph: &LinkageGraph) -> RatePlan {
        propagate_rates(self.spec, graph, self.request.rate.max(1.0))
    }
}
