//! The planning facade: ties enumeration, mapping, and search together
//! (Figure 1, step 4).

use crate::exhaustive::{self, Incumbent};
use crate::hierarchy::{HierConfig, HierMemo, RegionWorkMap};
use crate::linkage::{enumerate_linkages_multi, LinkageGraph, LinkageLimits};
use crate::mapping::{Evaluation, Mapper};
use crate::plan::{Objective, Placement, Plan, PlanError, PlanStats, ServiceRequest};
use ps_net::{Network, NodeId, PropertyTranslator, RouteTable};
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
    /// serving layer's connect path onto region decomposition with the
    /// per-region subplan memo ([`crate::hierarchy`]). `None` (the
    /// default) keeps every path flat.
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
        self.solve(net, translator, request, None)
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
        self.solve(net, translator, request, Some(memo))
    }

    /// The one solve both entry points above are wrappers of.
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
    fn solve<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
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

        let mut regions = None;
        if let Some(memo) = memo.filter(|_| self.config.hier.is_some()) {
            if let Some(setup) =
                self.hier_setup(net, translator, request, &graphs, memo, &mut stats)
            {
                let found = self.sweep(&setup.mapper, &graphs, &mut stats);
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
        let (table, built) = match memo {
            Some(memo) => memo.route_table(net),
            None => (Arc::new(RouteTable::build(net)), true),
        };
        if built {
            stats.route_table_build_us = table.build_micros();
            stats.route_rows_built += net.node_count() as u64;
        }
        // One mapper shared across every candidate graph: credential
        // translation and the plan memo amortize over the whole search.
        let mapper = Mapper::new(&self.spec, net, translator, request, self.config.objective)
            .with_route_table(table);
        match self.sweep(&mapper, &graphs, &mut stats) {
            Some(plan) => Ok(self.finish(plan, stats, regions.as_ref())),
            None => Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            }),
        }
    }

    /// Searches every graph through `mapper` and keeps the
    /// objective-optimal mapping (the first found, on ties). The best
    /// objective found so far seeds each later graph's search, so later
    /// graphs are cut against earlier graphs' optima; a graph repeating
    /// a component more often than the instance-identity rules allow is
    /// skipped by the search itself before any bound is built.
    fn sweep(
        &self,
        mapper: &Mapper<'_>,
        graphs: &[LinkageGraph],
        stats: &mut PlanStats,
    ) -> Option<Plan> {
        let incumbent = Incumbent::new();
        let mut best: Option<Plan> = None;
        for graph in graphs {
            let Some((assignment, eval)) = exhaustive::search(mapper, graph, stats, &incumbent)
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
        best
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
        tracer.count("planner.bound_cells", stats.bound_cells);
        tracer.gauge(
            "planner.route_table_build_wall_us",
            stats.route_table_build_us as f64,
        );
        if let Some(regions) = regions {
            self.publish_hier(&stats, regions);
        }
        plan
    }
}

/// Materializes a search result as a [`Plan`] (stats are attached by
/// the caller).
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
    }
}
