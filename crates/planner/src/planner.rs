//! The planning facade: ties enumeration, mapping, and search together
//! (Figure 1, step 4).

use crate::dp;
use crate::exhaustive;
use crate::linkage::enumerate_linkages_multi;
use crate::linkage::{LinkageGraph, LinkageLimits};
use crate::load::LoadModel;
use crate::mapping::{Evaluation, Mapper};
use crate::plan::{
    Objective, Placement, Plan, PlanError, PlanRepairStats, PlanStats, ServiceRequest,
};
use crate::pop;
use ps_net::{LinkId, Network, NodeId, PropertyTranslator, RouteTable};
use ps_spec::ServiceSpec;
use ps_trace::Tracer;
use std::sync::Arc;

/// Which search algorithm maps linkage graphs onto the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Unbounded brute force with property-flow pruning only — the
    /// pre-bounding oracle, kept reachable for equivalence testing and
    /// baseline benchmarking.
    Oracle,
    /// Exhaustive search with admissible branch-and-bound pruning;
    /// returns exactly the oracle's optimum (value and assignment).
    Exhaustive,
    /// Chain dynamic programming (CANS-style); non-chain graphs and the
    /// MaxCapacity objective fall back to branch-and-bound.
    DpChain,
    /// Branch-and-bound plan-space search (IPP-style solver core).
    PartialOrder,
    /// DP for chains, branch-and-bound otherwise.
    #[default]
    Auto,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Linkage enumeration limits.
    pub limits: LinkageLimits,
    /// Optimization objective.
    pub objective: Objective,
    /// Capacity enforcement mode. Note that [`Algorithm::DpChain`]
    /// reasons per-component regardless; with `Accumulated` the final
    /// whole-mapping check still applies to the plan it returns.
    pub load_model: LoadModel,
    /// Search algorithm.
    pub algorithm: Algorithm,
    /// Worker threads for graph mapping (0 or 1 = serial). Used by
    /// [`Planner::plan_parallel`]-aware callers such as the generic
    /// server.
    pub threads: usize,
    /// Build one all-pairs [`RouteTable`] per planning call and share it
    /// (read-only) across every mapper — including all
    /// [`Planner::plan_parallel`] workers — instead of each mapper
    /// running its own on-demand Dijkstras. On by default; turn off to
    /// measure the lazy baseline.
    pub share_route_table: bool,
    /// Tracer receiving planning statistics (`planner.*` registry
    /// counters). Disabled by default; the planner emits no trace
    /// *events* because it runs in host wall-clock time, which is banned
    /// from the deterministic event stream.
    pub tracer: Tracer,
    /// Hierarchical gateway-composed planning
    /// ([`Planner::plan_hierarchical`]): `Some` switches the serving
    /// layer's connect and repair paths onto region decomposition with
    /// the per-region subplan memo. `None` (the default) keeps every
    /// path flat.
    pub hier: Option<crate::hierarchy::HierConfig>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            limits: LinkageLimits::default(),
            objective: Objective::default(),
            load_model: LoadModel::default(),
            algorithm: Algorithm::default(),
            threads: 0,
            share_route_table: true,
            tracer: Tracer::disabled(),
            hier: None,
        }
    }
}

/// The planning module.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Service specification being planned for (shared with whoever
    /// registered it: a planner per connect costs no deep copy).
    pub spec: Arc<ServiceSpec>,
    /// Configuration.
    pub config: PlannerConfig,
}

impl Planner {
    /// Creates a planner with default configuration.
    pub fn new(spec: impl Into<Arc<ServiceSpec>>) -> Self {
        Planner::with_config(spec, PlannerConfig::default())
    }

    /// Creates a planner with an explicit configuration.
    pub fn with_config(spec: impl Into<Arc<ServiceSpec>>, config: PlannerConfig) -> Self {
        Planner {
            spec: spec.into(),
            config,
        }
    }

    /// Enumeration limits effective for one request: a degraded-mode
    /// request (partition-side healing) may detach data views from
    /// their unreachable upstream subtree.
    pub(crate) fn effective_limits(&self, request: &ServiceRequest) -> LinkageLimits {
        let mut limits = self.config.limits.clone();
        limits.allow_detached_data_views |= request.degraded;
        limits
    }

    /// Plans a deployment satisfying `request` on `net` (Section 3.3's
    /// two logical steps: enumerate valid linkages, then map them onto
    /// the network discarding mappings that violate any constraint,
    /// keeping the objective-optimal survivor).
    pub fn plan<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
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
        let mut best: Option<Plan> = None;

        // All-pairs routes computed once for this network epoch and
        // shared by every mapper below.
        let route_table = self
            .config
            .share_route_table
            .then(|| Arc::new(RouteTable::build(net)));
        if let Some(table) = &route_table {
            stats.route_table_build_us = table.build_micros();
            // A full build runs one Dijkstra per source; recorded so the
            // deterministic work proxy (`PlanStats::work_units`) charges
            // flat and hierarchical planning on the same scale.
            stats.route_rows_built = net.node_count() as u64;
        }
        let with_table = |mapper| attach_table(mapper, &route_table);

        // One mapper per load model, shared across every candidate graph:
        // credential translation and the plan memo amortize over the
        // whole search. The DP reasons per-component, so it gets the
        // matching load model regardless of the configuration.
        let configured_mapper = with_table(Mapper::new(
            &self.spec,
            net,
            translator,
            request,
            self.config.load_model,
            self.config.objective,
        ));
        let dp_mapper = if self.config.load_model == LoadModel::PerComponent {
            None
        } else {
            Some(with_table(Mapper::new(
                &self.spec,
                net,
                translator,
                request,
                LoadModel::PerComponent,
                self.config.objective,
            )))
        };

        // Best objective found across graphs; seeds the bounded search so
        // later graphs are cut against earlier graphs' optima.
        let incumbent = exhaustive::Incumbent::new();

        for graph in &graphs {
            if !self.graph_possibly_feasible(graph, request) {
                stats.prunes += 1;
                continue;
            }
            let use_dp = match self.config.algorithm {
                Algorithm::Oracle | Algorithm::Exhaustive | Algorithm::PartialOrder => false,
                Algorithm::DpChain | Algorithm::Auto => {
                    dp::applicable(graph, self.config.objective)
                }
            };
            let result = if use_dp {
                let mapper = dp_mapper.as_ref().unwrap_or(&configured_mapper);
                // The chain DP cannot see path-wide instance-identity
                // constraints (no two new instances of one configuration);
                // when its reconstruction fails final validation, fall
                // back to the branch-and-bound solver for this graph.
                dp::search(mapper, graph, &mut stats)
                    .or_else(|| pop::search(&configured_mapper, graph, &mut stats))
            } else {
                match self.config.algorithm {
                    Algorithm::Oracle => {
                        exhaustive::search_unbounded(&configured_mapper, graph, &mut stats)
                    }
                    Algorithm::Exhaustive => {
                        exhaustive::search_seeded(&configured_mapper, graph, &mut stats, &incumbent)
                    }
                    _ => pop::search(&configured_mapper, graph, &mut stats),
                }
            };
            let Some((assignment, eval)) = result else {
                continue;
            };
            let better = best
                .as_ref()
                .is_none_or(|b| eval.objective_value < b.objective_value);
            if !better {
                continue;
            }
            best = Some(assemble_plan(graph, &assignment, eval));
        }

        match best {
            Some(mut plan) => {
                plan.stats = stats;
                self.publish_stats(&plan.stats);
                Ok(plan)
            }
            None => Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            }),
        }
    }

    /// Folds a completed search's statistics into the configured tracer's
    /// registry (a no-op with the default disabled tracer).
    pub(crate) fn publish_stats(&self, stats: &PlanStats) {
        let tracer = &self.config.tracer;
        tracer.count("planner.plans", 1);
        tracer.count("planner.graphs_enumerated", stats.graphs_enumerated as u64);
        tracer.count("planner.mappings_evaluated", stats.mappings_evaluated);
        tracer.count("planner.prunes", stats.prunes);
        tracer.count("planner.bound_prunes", stats.bound_prunes);
        tracer.count("planner.flow_evals", stats.flow_evals);
        tracer.gauge(
            "planner.route_table_build_wall_us",
            stats.route_table_build_us as f64,
        );
    }

    /// Warm-start plan repair: re-plans `request` after a network change,
    /// seeding the exact search with a cheap *repair* of the surviving
    /// plan instead of starting cold. Two phases:
    ///
    /// 1. **Repair solve** — on the old plan's linkage graph, every chain
    ///    position the damage did *not* touch keeps its surviving
    ///    placement (candidate set fixed to the old node); only positions
    ///    on quarantined hosts or whose edge routes crossed dirty links
    ///    are re-solved. Any feasible repaired mapping's objective seeds
    ///    the shared incumbent.
    /// 2. **Exact search** — the same bounded branch-and-bound sweep over
    ///    every candidate graph that [`plan`](Self::plan) runs (pinned to
    ///    [`Algorithm::Exhaustive`], the incumbent-aware solver). Because
    ///    pruning is strict (`bound > incumbent`), the seed never cuts an
    ///    equal-or-better completion, so the returned objective value is
    ///    exactly the from-scratch optimum — just found with most of the
    ///    tree pre-cut.
    ///
    /// On objective *ties* the repaired old-shape mapping wins, which
    /// minimizes placement churn: surviving instances stay where they
    /// are unless strictly beaten. When the repair solve is infeasible
    /// (a surviving node lost its installation conditions), the call
    /// degrades to an unseeded — still exact — search.
    ///
    /// When `ctx.prior_routes` carries the previous epoch's route table,
    /// it is repaired incrementally ([`RouteTable::repair`]) from the
    /// same dirty sets instead of rebuilding all sources.
    pub fn plan_repair<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        ctx: &RepairContext<'_>,
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
        let route_table = self.config.share_route_table.then(|| {
            match &ctx.prior_routes {
                Some(prior) if prior.is_current(net) => Arc::clone(prior),
                Some(prior) => {
                    // Delta-Dijkstra repair of the previous epoch's table:
                    // the dirty sets below are exactly the damage since it
                    // was built, so only affected sources re-run.
                    let mut table = (**prior).clone();
                    let outcome = table.repair(net, &ctx.dirty_links, &ctx.dirty_nodes);
                    stats.route_table_build_us = outcome.repair_micros;
                    stats.route_rows_built = outcome.sources_rebuilt as u64;
                    Arc::new(table)
                }
                None => {
                    let table = Arc::new(RouteTable::build(net));
                    stats.route_table_build_us = table.build_micros();
                    stats.route_rows_built = net.node_count() as u64;
                    table
                }
            }
        });
        let configured_mapper = attach_table(
            Mapper::new(
                &self.spec,
                net,
                translator,
                request,
                self.config.load_model,
                self.config.objective,
            ),
            &route_table,
        );

        // Which chain positions did the damage touch? A placement is
        // affected when its host is down or dirty; an edge implicates
        // both endpoints when its route crossed a dirty link or node.
        let old = ctx.old_plan;
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
            // The implicit client → root route is not recorded in the
            // plan's edges; a free-floating root is conservatively
            // re-solved whenever anything moved.
            affected[0] = true;
        }
        let chains_resolved = affected.iter().filter(|&&a| a).count();
        let chains_reused = affected.len() - chains_resolved;

        let incumbent = exhaustive::Incumbent::new();

        // Phase 1: the repair solve (fixed survivors, re-solve the rest).
        let fixed: Vec<Option<NodeId>> = affected
            .iter()
            .zip(&old.placements)
            .map(|(&aff, p)| (!aff).then_some(p.node))
            .collect();
        // The seed must live in the current request's graph space: a
        // plan carried over from a differently-shaped request (e.g. a
        // degraded-mode detached chain being re-planned on the full
        // request) would otherwise seed — and on objective could win —
        // with a graph this request cannot legally produce.
        let seed = graphs
            .iter()
            .any(|g| g == &old.graph)
            .then(|| {
                exhaustive::search_restricted(
                    &configured_mapper,
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

        // Phase 2: the exact confirmation sweep, warm-started by the
        // repair seed. Tie-pruning (`>=` cuts) is sound here because
        // `best` always holds a feasible plan achieving the incumbent's
        // value — the seed, or the latest strictly-better find — and
        // ties deliberately keep it (churn minimization): the sweep
        // only needs to surface *strictly better* mappings, so the
        // plateau of equal-objective completions is never enumerated.
        for graph in &graphs {
            if !self.graph_possibly_feasible(graph, request) {
                stats.prunes += 1;
                continue;
            }
            let Some((assignment, eval)) = exhaustive::search_strictly_better(
                &configured_mapper,
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

        match best {
            Some(mut plan) => {
                plan.stats = stats;
                plan.repair = Some(PlanRepairStats {
                    chains_resolved,
                    chains_reused,
                    seeded_bound_cuts: stats.bound_prunes - cuts_before_full,
                    seeded,
                });
                self.publish_stats(&plan.stats);
                let tracer = &self.config.tracer;
                tracer.count("planner.repairs", 1);
                tracer.count("planner.repair_chains_resolved", chains_resolved as u64);
                tracer.count("planner.repair_chains_reused", chains_reused as u64);
                Ok(plan)
            }
            None => Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            }),
        }
    }

    /// Like [`plan`](Self::plan), but maps candidate linkage graphs onto
    /// the network on parallel threads. Each worker owns its own
    /// [`Mapper`] and with it its own plan memo; results are reduced to
    /// the same objective-optimal plan the serial path returns, with ties
    /// broken by graph order so the outcome stays deterministic.
    pub fn plan_parallel<T: PropertyTranslator + Sync + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        threads: usize,
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
        let viable: Vec<(usize, &crate::linkage::LinkageGraph)> = graphs
            .iter()
            .enumerate()
            .filter(|(_, g)| self.graph_possibly_feasible(g, request))
            .collect();
        let threads = threads.max(1).min(viable.len().max(1));

        // Built once, before the workers spawn; every worker's mappers
        // share the same read-only table through the `Arc`.
        let route_table = self
            .config
            .share_route_table
            .then(|| Arc::new(RouteTable::build(net)));
        // Shared across workers: a mapping found by any thread bounds
        // every other thread's remaining search.
        let incumbent = exhaustive::Incumbent::new();

        struct GraphResult {
            order: usize,
            assignment: Vec<ps_net::NodeId>,
            eval: crate::mapping::Evaluation,
        }

        // One slot per viable graph: the search outcome (None when the
        // graph had no feasible mapping) plus that search's statistics —
        // kept separately so infeasible graphs still count their work.
        let mut per_graph: Vec<(Option<GraphResult>, PlanStats)> = Vec::new();
        per_graph.resize_with(viable.len(), Default::default);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let incumbent = &incumbent;
            // Round-robin distribution: consecutive graphs tend to share
            // structure (and cost), so striping spreads the expensive
            // ones instead of handing one worker a whole expensive run.
            for worker in 0..threads {
                let chunk: Vec<(usize, (usize, &crate::linkage::LinkageGraph))> = viable
                    .iter()
                    .copied()
                    .enumerate()
                    .skip(worker)
                    .step_by(threads)
                    .collect();
                let worker_table = route_table.clone();
                // ps-lint: allow(D004): the documented planner reduction — workers
                // fill disjoint `per_graph` slots and the merge folds them in slot
                // order, independent of thread completion order
                handles.push(scope.spawn(move || {
                    let with_table = |mapper| attach_table(mapper, &worker_table);
                    let mapper = with_table(Mapper::new(
                        &self.spec,
                        net,
                        translator,
                        request,
                        self.config.load_model,
                        self.config.objective,
                    ));
                    let dp_mapper = with_table(Mapper::new(
                        &self.spec,
                        net,
                        translator,
                        request,
                        LoadModel::PerComponent,
                        self.config.objective,
                    ));
                    let mut results = Vec::with_capacity(chunk.len());
                    for &(slot, (order, graph)) in &chunk {
                        let mut stats = PlanStats::default();
                        let use_dp = match self.config.algorithm {
                            Algorithm::Oracle | Algorithm::Exhaustive | Algorithm::PartialOrder => {
                                false
                            }
                            Algorithm::DpChain | Algorithm::Auto => {
                                dp::applicable(graph, self.config.objective)
                            }
                        };
                        let result = if use_dp {
                            dp::search(&dp_mapper, graph, &mut stats)
                                .or_else(|| pop::search(&mapper, graph, &mut stats))
                        } else {
                            match self.config.algorithm {
                                Algorithm::Oracle => {
                                    exhaustive::search_unbounded(&mapper, graph, &mut stats)
                                }
                                Algorithm::Exhaustive => {
                                    exhaustive::search_seeded(&mapper, graph, &mut stats, incumbent)
                                }
                                _ => pop::search(&mapper, graph, &mut stats),
                            }
                        };
                        results.push((
                            slot,
                            (
                                result.map(|(assignment, eval)| GraphResult {
                                    order,
                                    assignment,
                                    eval,
                                }),
                                stats,
                            ),
                        ));
                    }
                    results
                }));
            }
            for handle in handles {
                // ps-lint: allow(P001): a panicked worker thread must be
                // re-raised here — swallowing it would return a silently
                // truncated plan set as if it were the full search result.
                for (slot, r) in handle.join().expect("planner worker") {
                    per_graph[slot] = r;
                }
            }
        });

        let mut stats = PlanStats {
            graphs_enumerated: graphs.len(),
            prunes: (graphs.len() - viable.len()) as u64,
            ..PlanStats::default()
        };
        if let Some(table) = &route_table {
            stats.route_table_build_us = table.build_micros();
            stats.route_rows_built = net.node_count() as u64;
        }
        let mut best: Option<GraphResult> = None;
        for (result, graph_stats) in per_graph {
            stats.absorb(&graph_stats);
            let Some(result) = result else { continue };
            let better = match &best {
                None => true,
                Some(b) => {
                    result.eval.objective_value < b.eval.objective_value
                        || (result.eval.objective_value == b.eval.objective_value
                            && result.order < b.order)
                }
            };
            if better {
                best = Some(result);
            }
        }
        let Some(winner) = best else {
            return Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            });
        };
        let graph = &graphs[winner.order];
        self.publish_stats(&stats);
        let mut plan = assemble_plan(graph, &winner.assignment, winner.eval);
        plan.stats = stats;
        Ok(plan)
    }

    /// Cheap structural pre-filter: a graph that uses a component with
    /// environment-independent configuration `m` times can only be mapped
    /// when at least `m − 1` pre-existing instances of it are attachable —
    /// the instance-identity rules forbid creating two new instances of
    /// one configuration. Graphs that fail are infeasible for every
    /// mapping, so no search algorithm needs to touch them.
    pub(crate) fn graph_possibly_feasible(
        &self,
        graph: &crate::linkage::LinkageGraph,
        request: &ServiceRequest,
    ) -> bool {
        use std::collections::BTreeMap;
        let mut multiplicity: BTreeMap<&str, usize> = BTreeMap::new();
        for node in &graph.nodes {
            *multiplicity.entry(node.component.as_str()).or_insert(0) += 1;
        }
        for (component, &count) in &multiplicity {
            if count < 2 {
                continue;
            }
            let Some(decl) = self.spec.get_component(component) else {
                return false;
            };
            if decl.is_env_dependent() {
                // Factored per node: distinct configurations may coexist.
                continue;
            }
            let existing = request
                .existing
                .iter()
                .filter(|e| e.component == *component)
                .map(|e| e.node)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                + usize::from(request.pinned.contains_key(*component));
            if count > existing + 1 {
                return false;
            }
        }
        true
    }
}

/// What changed since a plan was made — the input to
/// [`Planner::plan_repair`]. Built by one heal pass from *all* liveness
/// events and monitor diffs observed since the last pass, so concurrent
/// failures batch into a single repair solve per connection.
#[derive(Debug, Clone)]
pub struct RepairContext<'p> {
    /// The surviving plan to repair.
    pub old_plan: &'p Plan,
    /// Nodes whose liveness or credentials changed (quarantined, restored,
    /// re-rated) since `old_plan` was made.
    pub dirty_nodes: Vec<NodeId>,
    /// Links whose state (up/down, latency, bandwidth, credentials)
    /// changed since `old_plan` was made.
    pub dirty_links: Vec<LinkId>,
    /// The route table from before the change; repaired incrementally
    /// from the dirty sets instead of rebuilt (used as-is when already
    /// current). `None` falls back to a full build.
    pub prior_routes: Option<Arc<RouteTable>>,
}

/// Materializes a search result as a [`Plan`] (stats and repair info are
/// attached by the caller).
pub(crate) fn assemble_plan(graph: &LinkageGraph, assignment: &[NodeId], eval: Evaluation) -> Plan {
    let placements = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(idx, tn)| Placement {
            graph_index: idx,
            component: tn.component.clone(),
            node: assignment[idx],
            factors: eval.factors[idx].clone(),
            provided: eval.provided[idx].clone(),
            preexisting: eval.preexisting[idx],
        })
        .collect();
    Plan {
        graph: graph.clone(),
        placements,
        edges: eval.edges,
        objective_value: eval.objective_value,
        expected_latency_ms: eval.latency_ms,
        deployment_cost_ms: eval.cost_ms,
        sustainable_rate: eval.sustainable_rate,
        stats: PlanStats::default(),
        repair: None,
    }
}

/// Attaches the shared route table (when one was built) to a mapper.
fn attach_table<'a>(mapper: Mapper<'a>, table: &Option<Arc<RouteTable>>) -> Mapper<'a> {
    match table {
        Some(table) => mapper.with_route_table(Arc::clone(table)),
        None => mapper,
    }
}
