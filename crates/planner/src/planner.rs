//! The planning facade: ties enumeration, mapping, and search together
//! (Figure 1, step 4).

use crate::exhaustive::{self, Incumbent};
use crate::hierarchy::{HierConfig, HierMemo, RecentPlan, RegionWorkMap};
use crate::linkage::{enumerate_for, LinkageGraph, LinkageLimits};
use crate::mapping::{Evaluation, Mapper};
use crate::plan::{Objective, Placement, Plan, PlanError, PlanStats, ServiceRequest};
use ps_net::{Network, NodeId, PropertyTranslator, ScopedRoutes};
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
        self.plan_on(net, translator, request, Arc::new(ScopedRoutes::new()))
    }

    /// [`plan`](Self::plan) on a route table the caller owns, so that
    /// later questions on the same network read the rows this search
    /// built. The search is the flat one whatever
    /// [`PlannerConfig::hier`] holds.
    pub fn plan_on<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        routes: Arc<ScopedRoutes>,
    ) -> Result<Plan, PlanError> {
        self.solve(net, translator, request, routes, None)
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
        self.solve(
            net,
            translator,
            request,
            memo.scoped_routes(net),
            Some(memo),
        )
    }

    /// The one solve both entry points above are wrappers of.
    ///
    /// Every route the solve reads comes from `routes`: the serving
    /// memo's rows of the epoch when there is a memo, the caller's table
    /// otherwise, built a source row at a time as the search asks.
    /// With a memo and [`PlannerConfig::hier`] set, the search first runs
    /// on the hierarchical composition universe (shortlists from the
    /// memo); a fabric with fewer than two regions has nothing to
    /// decompose, and a universe that misses every feasible mapping (e.g.
    /// the only installable host sits outside all shortlists) is no
    /// answer — correctness over speed — so both fall through to the flat
    /// search over the whole network, on the same rows and carrying the
    /// statistics of the work already done.
    ///
    /// On a memo every sweep starts warm: its incumbent is seeded with
    /// the memo's recent plans that its mapper accepts
    /// ([`warm_incumbent`]), and the plan found joins them.
    fn solve<T: PropertyTranslator + ?Sized>(
        &self,
        net: &Network,
        translator: &T,
        request: &ServiceRequest,
        routes: Arc<ScopedRoutes>,
        memo: Option<&HierMemo>,
    ) -> Result<Plan, PlanError> {
        if let Some(unknown) = request
            .pinned
            .keys()
            .find(|pinned| self.spec.get_component(pinned).is_none())
        {
            return Err(PlanError::UnknownPinned(unknown.clone()));
        }
        // A degraded-mode request (partition-side healing) may detach
        // data views from their unreachable upstream subtree. On a memo
        // the graphs are enumerated once per registration.
        let (interfaces, limits) = (&request.interfaces, &self.config.limits);
        let graphs: Arc<[LinkageGraph]> = match memo {
            Some(memo) => memo.linkage_graphs(&self.spec, interfaces, limits, request.degraded),
            None => enumerate_for(&self.spec, interfaces, limits, request.degraded).into(),
        };
        if graphs.is_empty() {
            return Err(PlanError::NoImplementers(request.interfaces.join(" + ")));
        }
        let mut stats = PlanStats {
            graphs_enumerated: graphs.len(),
            ..PlanStats::default()
        };
        let rows_before = routes.rows_built();
        let seeds = memo.map_or_else(Vec::new, HierMemo::recent_plans);
        let signed = memo.map(|memo| memo.signed(net, &self.spec, request));
        // The memo's flow book, held by whichever mapper sweeps.
        let mut book = signed.map(|signed| signed.memo.take_book(net, signed.signature));

        let mut regions = None;
        let mut found = None;
        if let Some(signed) = signed.filter(|_| self.config.hier.is_some()) {
            if let Some(setup) =
                self.hier_setup(net, translator, request, &graphs, signed, &mut stats)
            {
                let mapper = setup.mapper.with_book(book.take());
                found = self.sweep(&mapper, &graphs, &seeds, &mut stats);
                book = Some(mapper.take_book());
                regions = Some(setup.per_region);
            }
        }
        if found.is_none() {
            // One mapper shared across every candidate graph: credential
            // translation and the plan memo amortize over the whole search.
            let reads_book = book.is_some();
            let mapper = Mapper::new(
                &self.spec,
                net,
                translator,
                request,
                self.config.objective,
                Arc::clone(&routes),
            )
            .with_admissions(signed)
            .with_book(book.take());
            found = self.sweep(&mapper, &graphs, &seeds, &mut stats);
            book = reads_book.then(|| mapper.take_book());
        }
        if let Some(memo) = memo {
            if let Some(plan) = &found {
                memo.remember_plan(plan);
            }
            if let Some(book) = book {
                memo.put_book(book);
            }
        }
        // The rows this solve added, not those earlier solves of the
        // epoch built or carried. (Solves racing on one memo may count
        // each other's rows; the serving layer plans one at a time.)
        stats.route_rows_built = (routes.rows_built() - rows_before) as u64;
        match found {
            Some(plan) => Ok(self.finish(plan, stats, regions.as_ref())),
            None => Err(PlanError::NoFeasibleMapping {
                graphs: graphs.len(),
            }),
        }
    }

    /// Searches every graph through `mapper` and keeps the
    /// objective-optimal mapping (the first found, on ties). The best
    /// objective found so far seeds each later graph's search, so later
    /// graphs are cut against earlier graphs' optima, and the first
    /// graph's against the best of `seeds` `mapper` accepts; a graph
    /// repeating a component more often than the instance-identity rules
    /// allow is skipped by the search itself before any bound is built.
    fn sweep(
        &self,
        mapper: &Mapper<'_>,
        graphs: &[LinkageGraph],
        seeds: &[Arc<RecentPlan>],
        stats: &mut PlanStats,
    ) -> Option<Plan> {
        let incumbent = Incumbent::new();
        if let Some(seed) = warm_incumbent(mapper, graphs, seeds, stats) {
            incumbent.offer_seed(seed);
        }
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
        tracer.count("planner.bound_pairs", stats.bound_pairs);
        if let Some(regions) = regions {
            self.publish_hier(&stats, regions);
        }
        plan
    }
}

/// The best objective among `seeds` that are mappings this solve's
/// search could itself return: each seed whose graph is in `graphs` is
/// moved to the request (its root onto the client under
/// `colocate_root`) and counts only if every host is in `mapper`'s
/// candidate set for its tree node — condition 1, liveness, pins, the
/// colocated root and the hierarchical universe — and the evaluator
/// accepts the whole — conditions 2–3, the identity rules, capacity and
/// the avoidance penalty. A stale or foreign seed fails one of the two
/// and is skipped. The value is [`Mapper::evaluate`]'s, its property
/// flows read from and left in the plan memo's verdict table for the
/// search ([`exhaustive::seed_value`]). `None` for `MaxCapacity`, which
/// cuts nothing.
fn warm_incumbent(
    mapper: &Mapper<'_>,
    graphs: &[LinkageGraph],
    seeds: &[Arc<RecentPlan>],
    stats: &mut PlanStats,
) -> Option<f64> {
    if matches!(mapper.objective, Objective::MaxCapacity) {
        return None;
    }
    let request = mapper.request;
    let accepted = seeds.iter().filter_map(|seed| {
        let graph = graphs.iter().find(|graph| **graph == seed.graph)?;
        let mut hosts = seed.hosts.clone();
        if request.colocate_root {
            hosts[0] = request.client_node;
        }
        exhaustive::seed_value(mapper, graph, &hosts, stats)
    });
    accepted.reduce(f64::min)
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
