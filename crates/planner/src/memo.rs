//! The plan-scoped search memo: everything one planning call learns
//! once and every graph search of that call reads back.
//!
//! A [`Mapper`](crate::Mapper) lives for exactly one planning call and
//! is shared by all of that call's graph searches, so the memo it owns has the same lifetime and needs no
//! invalidation: spec, request, node environments and routes are fixed
//! for as long as it exists. Eight tables, each keyed on exactly the
//! inputs its value is a pure function of:
//!
//! | table | key | value |
//! |---|---|---|
//! | candidate sets | (component, forced host) | hosts passing condition 1, as a shared slice |
//! | instance identity | candidate-set id × candidate index | the candidate's factor class (equal factors share one id) + preexisting and attachable bits |
//! | multiplicity capacity | the sorted ids of one component's candidate sets | how many occurrences of the component their factor classes admit |
//! | deployment-cost floors | candidate-set id | per candidate, the weighted deployment cost the search's bound charges |
//! | routes | (from, to), dense by slot | [`RouteMetrics`]; the full [`RouteInfo`] only once a flow check or the evaluator asks |
//! | least edge RTT | (parent candidate-set id or the client, child candidate-set id), dense | the least round trip over every host pair of the two sets, for the child's message bytes |
//! | provided bindings | the bindings value itself | a small id (equal values share one id) |
//! | flow verdicts | (candidate set, children's (host, provided id)) × candidate index | infeasible, or the provided id + bindings + factors |
//!
//! A verdict hit is exact, not heuristic: the key carries every input
//! the property flow reads — the component (through its candidate set),
//! the host, and each child's host and provided bindings (interned by
//! full equality) — and nothing about the linkage graph, so a verdict
//! learned while searching one graph answers every other graph of the
//! plan that places the same component over the same children.
//!
//! A set id stands for its component too, so the least-RTT key needs no
//! bytes (the child's component fixes the request and response sizes
//! its edge carries), a capacity no data-view flag and a floor no code
//! size; the client, the code origin and the objective are fixed for the
//! call.

use crate::mapping::RouteInfo;
use ps_net::{NodeId, RouteMetrics};
use ps_spec::ResolvedBindings;
use std::collections::HashMap;
use std::rc::Rc;

/// What a feasible property-flow check established for one placement.
#[derive(Debug, Clone)]
pub(crate) struct FlowOutcome {
    /// Id of `provided` in the memo's interner — the placement's part of
    /// its parent's flow context.
    pub provided_id: u32,
    /// Effective provided properties of the placement.
    pub provided: Rc<ResolvedBindings>,
    /// Its resolved factors.
    pub factors: Rc<ResolvedBindings>,
}

/// One read of the verdict table.
pub(crate) enum Verdict<'m> {
    /// Never computed for this (context, candidate).
    Unknown,
    /// Computed: condition 2 fails.
    Infeasible,
    /// Computed: feasible, with this outcome.
    Feasible(&'m FlowOutcome),
}

const UNKNOWN: u32 = 0;
const INFEASIBLE: u32 = 1;
/// Verdict cells at or above this value index `outcomes` (minus it).
const FEASIBLE_BASE: u32 = 2;

const NO_SLOT: u32 = u32::MAX;

/// What the instance-identity rules read of one candidate host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Identity {
    /// Id of the factors the component resolves to on the host; equal
    /// factor values share one id across every set of the plan.
    pub class: u32,
    /// The placement would attach to a pinned/existing instance
    /// ([`ServiceRequest::is_preexisting`](crate::ServiceRequest::is_preexisting)).
    pub preexisting: bool,
    /// Some pinned/existing instance of the component lives on the
    /// host, whatever its factors (the bound then charges no deployment).
    pub attachable: bool,
}

/// One memoized candidate set: its id (the component's part of a
/// flow-verdict key), the hosts, and per host its [`Identity`].
#[derive(Clone)]
pub(crate) struct CandidateSet {
    pub id: u32,
    pub nodes: Rc<[NodeId]>,
    pub identity: Rc<[Identity]>,
}

/// One (from, to) entry of the dense route table.
#[derive(Clone, Default)]
pub(crate) struct RouteCell {
    /// `None` until first asked; `Some(None)` when unreachable.
    pub metrics: Option<Option<RouteMetrics>>,
    /// The materialized route with its per-hop environments, filled
    /// only when a property-flow check or the evaluator needs them.
    pub info: Option<Rc<RouteInfo>>,
}

/// See the module docs.
pub(crate) struct PlanMemo {
    /// Sets by id, each under its (component, forced host) key.
    candidate_sets: Vec<(String, Option<NodeId>, CandidateSet)>,
    /// Distinct resolved factor values; an [`Identity::class`] indexes it.
    factor_classes: Vec<ResolvedBindings>,
    /// Network node → dense route-table slot: the node's position in
    /// the universe when one is set, its own index otherwise.
    slot: Vec<u32>,
    /// Slots in use (the row length of `routes`).
    side: usize,
    /// Route rows by source slot, allocated on a source's first query.
    routes: Vec<Option<Box<[RouteCell]>>>,
    /// Least edge RTT by parent row (the client is row 0, set `id` row
    /// `id + 1`) and child set id; `NaN` until scanned.
    least_rtt: Vec<Vec<f64>>,
    /// Multiplicity capacities by sorted candidate-set ids.
    capacities: Vec<(Vec<u32>, usize)>,
    /// Deployment-cost floors by candidate-set id.
    deploy_floors: Vec<Option<Rc<[f64]>>>,
    provided: Vec<Rc<ResolvedBindings>>,
    /// Flow context → base of its row in `verdicts`.
    contexts: HashMap<Vec<u64>, usize>,
    /// Verdict rows, one cell per candidate of the context's set.
    verdicts: Vec<u32>,
    outcomes: Vec<FlowOutcome>,
}

impl PlanMemo {
    /// An empty memo over a network of `nodes` nodes, routes indexed by
    /// node.
    pub fn new(nodes: usize) -> Self {
        PlanMemo {
            candidate_sets: Vec::new(),
            factor_classes: Vec::new(),
            slot: (0..nodes as u32).collect(),
            side: nodes,
            routes: vec![None; nodes],
            least_rtt: Vec::new(),
            capacities: Vec::new(),
            deploy_floors: Vec::new(),
            provided: Vec::new(),
            contexts: HashMap::new(),
            verdicts: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Re-indexes the route table by position in `domain` (sorted,
    /// deduplicated). Pairs with an endpoint outside it stay answerable
    /// but are not memoized. Must precede the first query.
    pub fn index_routes_by(&mut self, domain: &[NodeId]) {
        debug_assert!(
            self.candidate_sets.is_empty() && self.routes.iter().all(Option::is_none),
            "the route index must be fixed before the memo is first used"
        );
        self.slot.fill(NO_SLOT);
        for (position, node) in domain.iter().enumerate() {
            self.slot[node.0 as usize] = position as u32;
        }
        self.side = domain.len();
        self.routes = vec![None; domain.len()];
    }

    /// The memoized candidate set of `(component, forced)`.
    pub fn candidate_set(&self, component: &str, forced: Option<NodeId>) -> Option<CandidateSet> {
        self.candidate_sets
            .iter()
            .find(|(name, at, _)| *at == forced && name == component)
            .map(|(_, _, set)| set.clone())
    }

    /// Interns a candidate's resolved factors into its class id. Like
    /// provided bindings, the distinct-value population is tiny, so a
    /// linear scan beats hashing the bindings themselves.
    pub fn factor_class(&mut self, factors: ResolvedBindings) -> u32 {
        let class = match self.factor_classes.iter().position(|f| *f == factors) {
            Some(class) => class,
            None => {
                self.factor_classes.push(factors);
                self.factor_classes.len() - 1
            }
        };
        class as u32
    }

    /// Stores a freshly computed candidate set, `identity[i]` describing
    /// `nodes[i]`.
    pub fn add_candidate_set(
        &mut self,
        component: &str,
        forced: Option<NodeId>,
        nodes: Vec<NodeId>,
        identity: Vec<Identity>,
    ) -> CandidateSet {
        debug_assert_eq!(nodes.len(), identity.len());
        let set = CandidateSet {
            id: self.candidate_sets.len() as u32,
            nodes: nodes.into(),
            identity: identity.into(),
        };
        self.candidate_sets
            .push((component.to_string(), forced, set.clone()));
        set
    }

    /// The route-table cell of `(from, to)`; `None` when an endpoint
    /// lies outside the indexed domain.
    pub fn route_cell(&mut self, from: NodeId, to: NodeId) -> Option<&mut RouteCell> {
        let (row, column) = (self.slot[from.0 as usize], self.slot[to.0 as usize]);
        if row == NO_SLOT || column == NO_SLOT {
            return None;
        }
        let side = self.side;
        let row = self.routes[row as usize]
            .get_or_insert_with(|| vec![RouteCell::default(); side].into_boxed_slice());
        Some(&mut row[column as usize])
    }

    /// The least edge RTT between candidate sets `parent` (`None`: the
    /// client) and `child`, when one was recorded.
    pub fn least_rtt(&self, parent: Option<u32>, child: u32) -> Option<f64> {
        let row = self.least_rtt.get(parent.map_or(0, |id| id as usize + 1))?;
        row.get(child as usize).copied().filter(|rtt| !rtt.is_nan())
    }

    /// Records the least edge RTT between candidate sets `parent`
    /// (`None`: the client) and `child`.
    pub fn record_least_rtt(&mut self, parent: Option<u32>, child: u32, rtt: f64) {
        let (row, column) = (parent.map_or(0, |id| id as usize + 1), child as usize);
        if self.least_rtt.len() <= row {
            self.least_rtt.resize_with(row + 1, Vec::new);
        }
        let row = &mut self.least_rtt[row];
        if row.len() <= column {
            row.resize(column + 1, f64::NAN);
        }
        row[column] = rtt;
    }

    /// The multiplicity capacity recorded for the component whose
    /// candidate sets are `sets` (sorted, deduplicated ids).
    pub fn capacity(&self, sets: &[u32]) -> Option<usize> {
        let known = self.capacities.iter().find(|(ids, _)| ids == sets);
        known.map(|&(_, capacity)| capacity)
    }

    /// Records the multiplicity capacity of `sets` (sorted, deduplicated).
    pub fn record_capacity(&mut self, sets: Vec<u32>, capacity: usize) {
        self.capacities.push((sets, capacity));
    }

    /// The deployment-cost floors recorded for candidate set `set`.
    pub fn deploy_floors(&self, set: u32) -> Option<Rc<[f64]>> {
        self.deploy_floors.get(set as usize)?.clone()
    }

    /// Records the deployment-cost floors of candidate set `set`.
    pub fn record_deploy_floors(&mut self, set: u32, floors: Rc<[f64]>) {
        let at = set as usize;
        if self.deploy_floors.len() <= at {
            self.deploy_floors.resize(at + 1, None);
        }
        self.deploy_floors[at] = Some(floors);
    }

    /// Interns a flow context — `key` is the candidate-set id followed
    /// by each child's packed `(host, provided id)` — and returns the
    /// base of its verdict row, `width` (the set's length) cells wide.
    pub fn flow_context(&mut self, key: &[u64], width: usize) -> usize {
        if let Some(&base) = self.contexts.get(key) {
            return base;
        }
        let base = self.verdicts.len();
        self.verdicts.resize(base + width, UNKNOWN);
        self.contexts.insert(key.to_vec(), base);
        base
    }

    /// Reads verdict cell `cell` (a context base plus a candidate index).
    pub fn verdict(&self, cell: usize) -> Verdict<'_> {
        match self.verdicts[cell] {
            UNKNOWN => Verdict::Unknown,
            INFEASIBLE => Verdict::Infeasible,
            code => Verdict::Feasible(&self.outcomes[(code - FEASIBLE_BASE) as usize]),
        }
    }

    /// Records a computed flow — `(provided, factors)`, or `None` for an
    /// incompatible placement — in verdict cell `cell`, interning the
    /// provided bindings. The distinct-value population is tiny
    /// (components produce the same effective bindings over and over),
    /// so a linear scan beats hashing the bindings themselves.
    pub fn record_flow(
        &mut self,
        cell: usize,
        computed: Option<(ResolvedBindings, ResolvedBindings)>,
    ) -> Option<FlowOutcome> {
        let Some((provided, factors)) = computed else {
            self.verdicts[cell] = INFEASIBLE;
            return None;
        };
        let provided_id = match self.provided.iter().position(|v| **v == provided) {
            Some(id) => id,
            None => {
                self.provided.push(Rc::new(provided));
                self.provided.len() - 1
            }
        };
        let outcome = FlowOutcome {
            provided_id: provided_id as u32,
            provided: Rc::clone(&self.provided[provided_id]),
            factors: Rc::new(factors),
        };
        self.verdicts[cell] = FEASIBLE_BASE + self.outcomes.len() as u32;
        self.outcomes.push(outcome.clone());
        Some(outcome)
    }
}
