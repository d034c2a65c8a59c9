//! The planning facade: ties enumeration, mapping, and search together
//! (Figure 1, step 4).

use crate::exhaustive::{self, Incumbent};
use crate::hierarchy::{HierConfig, HierMemo, RegionWorkMap};
use crate::linkage::{enumerate_linkages_multi, LinkageGraph, LinkageLimits};
use crate::mapping::{Evaluation, Mapper};
use crate::plan::{
    Objective, Placement, Plan, PlanError, PlanRepairStats, PlanStats, ServiceRequest,
};
use ps_net::{LinkId, Network, NodeId, PropertyTranslator, RouteTable};
use ps_spec::ServiceSpec;
use ps_trace::Tracer;
use std::sync::Arc;

/// The search algorithm mapping linkage graphs onto the network. There
/// is one — exhaustive search with admissible branch-and-bound pruning
/// ([`crate::exhaustive`]) — and the enum survives only as source
/// compatibility with the frozen `benchmark/` package, which writes
/// `algorithm: Algorithm::Exhaustive` (see ROADMAP "Smaller items").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The bounded exhaustive search.
    #[default]
    Exhaustive,
}

/// Planner configuration: enumeration limits, the objective, a tracer,
/// and hierarchical planning on or off.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Linkage enumeration limits.
    pub limits: LinkageLimits,
    /// Optimization objective.
    pub objective: Objective,
    /// No effect (one algorithm); kept for the `benchmark/` package.
    pub algorithm: Algorithm,
    /// No effect (planning is serial); kept for the `benchmark/` package.
    pub threads: usize,
    /// Tracer receiving planning statistics (`planner.*` registry
    /// counters). Disabled by default; the planner emits no trace
    /// *events* because it runs in host wall-clock time, which is banned
    /// from the deterministic event stream.
    pub tracer: Tracer,
    /// Hierarchical gateway-composed planning: `Some` switches the
    /// serving layer's connect and repair paths onto region
    /// decomposition with the per-region subplan memo
    /// ([`crate::hierarchy`]). `None` (the default) keeps every path flat.
    pub hier: Option<HierConfig>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            limits: LinkageLimits::default(),
            objective: Objective::default(),
            algorithm: Algorithm::default(),
            threads: 0,
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
    fn effective_limits(&self, request: &ServiceRequest) -> LinkageLimits {
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
        self.solve(net, translator, request, None, None)
    }

    /// Warm-start plan repair: re-plans `request` after a network change,
    /// seeding the exact search with a cheap *repair* of the surviving
    /// plan instead of starting cold (see [`solve`](Self::solve)). The
    /// returned objective value is exactly the from-scratch optimum; on
    /// objective *ties* the repaired old-shape mapping wins, which
    /// minimizes placement churn.
    pub fn plan_repair<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        ctx: &RepairContext<'_>,
    ) -> Result<Plan, PlanError> {
        self.solve(net, translator, request, Some(ctx), None)
    }

    /// [`plan`](Self::plan) on a serving memo's routes: under
    /// [`PlannerConfig::hier`] it composes per-region segment shortlists
    /// across the gateway skeleton and searches the restricted universe
    /// (see [`crate::hierarchy`]).
    pub fn plan_hierarchical<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        memo: &HierMemo,
    ) -> Result<Plan, PlanError> {
        self.solve(net, translator, request, None, Some(memo))
    }

    /// The one solve every entry point above is a wrapper of.
    ///
    /// `memo` is the serving memo that owns the epoch's routes. With
    /// one and [`PlannerConfig::hier`] set, the search first runs on the
    /// hierarchical composition universe (lazy route rows, shortlists
    /// from the memo); a fabric with fewer than two regions has nothing
    /// to decompose, and a universe that misses every feasible mapping
    /// (e.g. the only installable host sits outside all shortlists) is
    /// no answer — correctness over speed — so both fall through to the
    /// flat search over the whole network and one all-pairs
    /// [`RouteTable`], carrying the statistics of the work already done.
    /// The flat search reads the memo's table — built by the epoch's
    /// first flat solve, which alone is charged for it — and without a
    /// memo builds and charges its own.
    ///
    /// With `repair`, each search is warm-started: a repair solve that
    /// keeps every placement the damage did not touch seeds the exact
    /// sweep over all graphs. A memo-less caller may also hand in the
    /// previous epoch's table (`ctx.prior_routes`) to have it repaired
    /// incrementally ([`RouteTable::repair`]) from the same dirty sets
    /// instead of rebuilt; no serving path does.
    pub fn solve<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        repair: Option<&RepairContext<'_>>,
        memo: Option<&HierMemo>,
    ) -> Result<Plan, PlanError> {
        if let Some(unknown) = request
            .pinned
            .keys()
            .find(|pinned| self.spec.get_component(pinned).is_none())
        {
            return Err(PlanError::UnknownPinned(unknown.clone()));
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
        let fixed = repair.map(|ctx| surviving_placements(net, request, ctx));
        let warm = repair
            .zip(fixed.as_deref())
            .map(|(ctx, fixed)| (ctx.old_plan, fixed));

        let mut regions = None;
        if let Some(memo) = memo.filter(|_| self.config.hier.is_some()) {
            // A repair anchors the universe on the old plan's hosts too.
            let anchors: Vec<NodeId> = repair
                .iter()
                .flat_map(|ctx| ctx.old_plan.placements.iter().map(|p| p.node))
                .collect();
            if let Some(setup) = self.hier_setup(
                net, translator, request, &graphs, memo, &anchors, &mut stats,
            ) {
                let found = self.sweep(&setup.mapper, &graphs, warm, &mut stats);
                stats.route_rows_built += setup.rows_built();
                regions = Some(setup.per_region);
                if let Some(plan) = found {
                    return Ok(self.finish(plan, stats, regions.as_ref()));
                }
            }
        }

        // All-pairs routes, computed once for this network epoch. A full
        // build runs one Dijkstra per source; recorded so the
        // deterministic work proxy (`PlanStats::work_units`) charges
        // flat and hierarchical planning on the same scale.
        let prior = repair.and_then(|ctx| Some((ctx, ctx.prior_routes.as_ref()?)));
        let (table, built) = match (memo, prior) {
            (Some(memo), _) => memo.route_table(net),
            (None, Some((_, prior))) if prior.is_current(net) => (Arc::clone(prior), false),
            (None, Some((ctx, prior))) => {
                // Delta-Dijkstra repair of the previous epoch's table:
                // the dirty sets are exactly the damage since it was
                // built, so only affected sources re-run.
                let mut table = (**prior).clone();
                let outcome = table.repair(net, &ctx.dirty_links, &ctx.dirty_nodes);
                stats.route_table_build_us = outcome.repair_micros;
                stats.route_rows_built += outcome.sources_rebuilt as u64;
                (Arc::new(table), false)
            }
            (None, None) => (Arc::new(RouteTable::build(net)), true),
        };
        if built {
            stats.route_table_build_us = table.build_micros();
            stats.route_rows_built += net.node_count() as u64;
        }
        // One mapper shared across every candidate graph: credential
        // translation and the plan memo amortize over the whole search.
        let mapper = Mapper::new(&self.spec, net, translator, request, self.config.objective)
            .with_route_table(table);
        match self.sweep(&mapper, &graphs, warm, &mut stats) {
            Some(plan) => Ok(self.finish(plan, stats, regions.as_ref())),
            None => Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            }),
        }
    }

    /// Searches every graph through `mapper` and keeps the
    /// objective-optimal mapping. The best objective found so far seeds
    /// each later graph's search, so later graphs are cut against
    /// earlier graphs' optima; a graph repeating a component more often
    /// than the instance-identity rules allow is skipped by the search
    /// itself before any bound is built.
    ///
    /// With `warm` — the surviving plan and, per chain position, the
    /// placement the damage did not touch — the sweep is a repair:
    ///
    /// 1. **Repair solve** — on the old plan's linkage graph, every
    ///    untouched position keeps its surviving placement (candidate
    ///    set fixed to the old node); only the touched ones are
    ///    re-solved. Any feasible repaired mapping's objective seeds the
    ///    incumbent. When it is infeasible (a surviving node lost its
    ///    installation conditions), the sweep below runs unseeded —
    ///    still exact.
    /// 2. **Confirmation sweep** — the same search over every graph,
    ///    pruning ties. Sound because `best` always holds a feasible
    ///    plan achieving the incumbent's value — the seed, or the latest
    ///    strictly-better find — and ties deliberately keep it (churn
    ///    minimization): the sweep only needs to surface *strictly
    ///    better* mappings, so the plateau of equal-objective
    ///    completions is never enumerated.
    fn sweep(
        &self,
        mapper: &Mapper<'_>,
        graphs: &[LinkageGraph],
        warm: Option<(&Plan, &[Option<NodeId>])>,
        stats: &mut PlanStats,
    ) -> Option<Plan> {
        let incumbent = Incumbent::new();
        // The seed must live in the current request's graph space: a
        // plan carried over from a differently-shaped request (e.g. a
        // degraded-mode detached chain being re-planned on the full
        // request) would otherwise seed — and on objective could win —
        // with a graph this request cannot legally produce.
        let mut best = warm
            .filter(|(old, _)| graphs.contains(&old.graph))
            .and_then(|(old, fixed)| {
                let (assignment, eval) =
                    exhaustive::search(mapper, &old.graph, stats, &incumbent, Some(fixed), false)?;
                Some(assemble_plan(&old.graph, &assignment, eval))
            });
        let seeded = best.is_some();
        let cuts_before_sweep = stats.bound_prunes;
        for graph in graphs {
            let Some((assignment, eval)) =
                exhaustive::search(mapper, graph, stats, &incumbent, None, warm.is_some())
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
        let mut plan = best?;
        if let Some((_, fixed)) = warm {
            let chains_reused = fixed.iter().flatten().count();
            plan.repair = Some(PlanRepairStats {
                chains_resolved: fixed.len() - chains_reused,
                chains_reused,
                seeded_bound_cuts: stats.bound_prunes - cuts_before_sweep,
                seeded,
            });
        }
        Some(plan)
    }

    /// Attaches the solve's statistics to its plan and folds them into
    /// the configured tracer's registry (a no-op with the default
    /// disabled tracer). `regions` is the per-region work of a
    /// hierarchical attempt, published whether or not it produced the
    /// plan.
    fn finish(&self, mut plan: Plan, stats: PlanStats, regions: Option<&RegionWorkMap>) -> Plan {
        plan.stats = stats;
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
        if let Some(regions) = regions {
            self.publish_hier(&stats, regions);
        }
        if let Some(repair) = &plan.repair {
            tracer.count("planner.repairs", 1);
            tracer.count(
                "planner.repair_chains_resolved",
                repair.chains_resolved as u64,
            );
            tracer.count("planner.repair_chains_reused", repair.chains_reused as u64);
        }
        plan
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
    /// The route table from before the change, for a memo-less solve to
    /// repair incrementally from the dirty sets instead of rebuilding
    /// (used as-is when already current). `None` — what every serving
    /// path passes — reads the memo's table or builds one.
    pub prior_routes: Option<Arc<RouteTable>>,
}

impl<'p> RepairContext<'p> {
    /// The damage since `old_plan` was made, with no prior route table.
    pub fn new(old_plan: &'p Plan, dirty_nodes: Vec<NodeId>, dirty_links: Vec<LinkId>) -> Self {
        RepairContext {
            old_plan,
            dirty_nodes,
            dirty_links,
            prior_routes: None,
        }
    }
}

/// Materializes a search result as a [`Plan`] (stats and repair info are
/// attached by the caller).
fn assemble_plan(graph: &LinkageGraph, assignment: &[NodeId], eval: Evaluation) -> Plan {
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

/// Which chain positions of the surviving plan the damage left alone:
/// `Some(host)` keeps the placement fixed during the repair solve,
/// `None` marks a position to re-solve. A placement is touched when its
/// host is down or dirty; an edge implicates both endpoints when its
/// route crossed a dirty link or node.
fn surviving_placements(
    net: &Network,
    request: &ServiceRequest,
    ctx: &RepairContext<'_>,
) -> Vec<Option<NodeId>> {
    let old = ctx.old_plan;
    let mut fixed: Vec<Option<NodeId>> = old
        .placements
        .iter()
        .map(|p| (net.node(p.node).up && !ctx.dirty_nodes.contains(&p.node)).then_some(p.node))
        .collect();
    for edge in &old.edges {
        let touched = edge.route.links.iter().any(|l| ctx.dirty_links.contains(l))
            || edge.route.via.iter().any(|n| ctx.dirty_nodes.contains(n));
        if touched {
            fixed[edge.from] = None;
            fixed[edge.to] = None;
        }
    }
    if !request.colocate_root && (!ctx.dirty_nodes.is_empty() || !ctx.dirty_links.is_empty()) {
        // The implicit client → root route is not recorded in the
        // plan's edges; a free-floating root is conservatively
        // re-solved whenever anything moved.
        fixed[0] = None;
    }
    fixed
}
