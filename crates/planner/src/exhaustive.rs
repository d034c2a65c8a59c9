//! Exhaustive mapping search with admissible branch-and-bound pruning.
//!
//! Tree nodes are assigned in bottom-up order so that every parent-child
//! property-flow check (condition 2) can run the moment the parent is
//! placed, pruning infeasible subtrees early. On top of that, [`search`]
//! accumulates the partial objective incrementally during recursion and
//! cuts any subtree whose admissible lower bound already exceeds the
//! incumbent's objective:
//!
//! * the partial cost of a placement is the same per-node increment the
//!   final evaluation charges — the latency part (CPU share +
//!   parent-edge round trips + the client edge for the root) *and* the
//!   deployment-cost part (code transfer + startup, zero for
//!   pinned/existing attachments), each weighted as the objective
//!   weights them — so at a complete assignment the accumulated partial
//!   equals the full objective (undershooting only when a
//!   might-be-preexisting placement's factors fail to match);
//! * the remaining-suffix bound takes, per unplaced tree node, the
//!   minimum increment over its whole candidate set — an underestimate
//!   of whatever the search will actually commit to;
//! * the *chain bound* tightens that suffix where its independent
//!   per-edge minima collapse to ~0 — deep in the tree, where bottom-up
//!   order starts. Placing a non-root tree node at host `m` leaves its
//!   whole ancestor chain unplaced and every edge up to the root
//!   uncharged, so every completion still pays at least the cheapest
//!   *joint* placement of those ancestors: their node terms plus each
//!   edge of the path, the lowest edge ending at `m`. That minimum is a
//!   top-down min-plus pass over the candidate sets
//!   (`State::build_chain_bound`) reading the very terms the descent
//!   charges. On a chain the ancestors are everything unplaced, so it is
//!   the exact optimum of the problem with property flow, identity and
//!   load relaxed; on a tree the off-path branches add ≥ 0, so it stays
//!   admissible and combines with the suffix bound by max;
//! * before any of that arithmetic a candidate is dropped when the plan
//!   memo's instance-identity table shows it clashing with an
//!   already-placed same-component tree node, and a graph that repeats
//!   a component more often than its candidates' factor classes admit
//!   is never descended at all — both exact: every completion would be
//!   rejected by the evaluator's identity rules;
//! * a placement's cut also charges the
//!   [`AVOID_PENALTY`](crate::AVOID_PENALTY) of every
//!   avoided host placed so far (a running sum kept beside the partial;
//!   the unplaced nodes' penalties are left out, which keeps it
//!   admissible): `(partial + remaining + penalty) · CHAIN_MARGIN >
//!   incumbent`. The evaluator adds the penalty after the other terms
//!   and the descent before them, so the margin absorbs the rounding; a
//!   request that avoids nothing compares exactly as without the term.
//!   A redeploy off a suspect host otherwise walks every mapping through
//!   it, each bound a million short;
//! * pruning is *strict* (`partial + remaining > incumbent objective`):
//!   a subtree is cut only when every completion is strictly worse than
//!   the incumbent, so the surviving optimum — value *and* chosen
//!   assignment — is identical to an unbounded descent's. For
//!   `MaxCapacity` (non-additive, negated) bounding is disabled;
//! * the incumbent may start below +∞: a solve on the serving memo
//!   offers it a *warm seed*, the objective of a recent plan moved to
//!   this request's client that the solve's own mapper accepts
//!   ([`Incumbent::offer_seed`]). A seed is the value of a mapping the
//!   search itself could return, lifted by `CHAIN_MARGIN` so the
//!   optimum's own path is never cut by an ulp: nothing at or below the
//!   optimum is cut, and the result — value and placements — is the
//!   unseeded one's. What changes is that the first graph's chain bound
//!   is built, and its cuts bite, before its first complete mapping.
//!
//! This is the planner's only search. The unbounded, memo-free descent
//! it must agree with — value *and* placements — lives with the tests
//! (`crates/planner/tests/reference/mod.rs`), unreachable from
//! [`PlannerConfig`](crate::PlannerConfig).
//!
//! Feasibility and objective of complete assignments are computed by
//! the [`Mapper`]'s evaluator.

use crate::linkage::LinkageGraph;
use crate::mapping::{Evaluation, Mapper, LATENCY_TIE_BREAK, STARTUP_COST_MS};
use crate::memo::{CandidateSet, FlowOutcome, Identity, Verdict};
use crate::plan::{Objective, PlanStats};
use ps_net::NodeId;
use ps_spec::ResolvedBindings;
use std::cell::Cell;
use std::rc::Rc;

/// A monotonically decreasing objective value shared by every graph
/// search of one planning call: the best complete mapping found so far.
///
/// Seeding later graph searches with it is exact: pruning is strict
/// (`bound > incumbent`), every incumbent is the objective of a real
/// feasible mapping, and the globally optimal completion's lower bound
/// never exceeds its own objective — so the winning graph still returns
/// its exact optimum, and graphs whose optimum ties or loses would have
/// been discarded by the plan reduction anyway.
#[derive(Debug)]
pub struct Incumbent(Cell<f64>);

impl Incumbent {
    /// A fresh incumbent at +∞ (no mapping found yet).
    pub fn new() -> Self {
        Incumbent(Cell::new(f64::INFINITY))
    }

    /// The current best objective value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }

    /// Lowers the incumbent to `value` if it improves on it.
    pub fn offer(&self, value: f64) {
        if value < self.0.get() {
            self.0.set(value);
        }
    }

    /// Offers a warm seed: the objective [`Mapper::evaluate`] gives a
    /// mapping found outside the search, lifted by `CHAIN_MARGIN`. The
    /// descent sums the same terms in another order than the evaluator,
    /// so a bare seed equal to the optimum could cut the optimum's own
    /// path by an ulp. Meaningless for `MaxCapacity`, whose negated
    /// objective nothing cuts against.
    pub fn offer_seed(&self, value: f64) {
        self.offer(value / CHAIN_MARGIN);
    }
}

impl Default for Incumbent {
    fn default() -> Self {
        Self::new()
    }
}

/// Searches every feasible mapping of `graph` with admissible
/// branch-and-bound pruning, returning the best assignment and its
/// evaluation. Prunes against `incumbent` — the best objective found
/// across the other graphs of the same planning call — and publishes
/// improvements back into it.
pub fn search(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
    stats: &mut PlanStats,
    incumbent: &Incumbent,
) -> Option<(Vec<NodeId>, Evaluation)> {
    if !multiplicity_feasible(mapper, graph) {
        // Skipped unsearched, and counted so `work_units` sees it.
        stats.prunes += 1;
        return None;
    }
    let mut state = State::new(mapper, graph, stats, incumbent)?;
    state.recurse(0, 0.0, 0.0);
    state.best
}

/// Scale of every chain-bound value. The bound sums a mapping's
/// objective terms in another order than the descent's partial does;
/// twelve digits of slack are ~10⁴ times that rounding, so the bound of
/// a mapping can never be lifted past its own objective and cut a tie,
/// and ~10⁵ times smaller than the closest objectives the planner tells
/// apart (`MinLatency`'s [`LATENCY_TIE_BREAK`] `· cost`).
const CHAIN_MARGIN: f64 = 1.0 - 1e-12;

fn latency_part(objective: Objective) -> f64 {
    match objective {
        Objective::MinLatency => 1.0,
        Objective::MinCost | Objective::MaxCapacity => 0.0,
        Objective::Weighted { latency_weight, .. } => latency_weight,
    }
}

/// Weight of the deployment-cost term in the objective, as the
/// evaluator weighs it ([`LATENCY_TIE_BREAK`] under `MinLatency`), so
/// the accumulated partial at a complete assignment equals the full
/// objective when no preexisting factor mismatch occurs.
fn cost_part(objective: Objective) -> f64 {
    match objective {
        Objective::MinLatency => LATENCY_TIE_BREAK,
        Objective::MinCost => 1.0,
        Objective::MaxCapacity => 0.0,
        Objective::Weighted { cost_weight, .. } => cost_weight,
    }
}

/// The multiplicity bound of the instance-identity rules: whether the
/// graph's repeated components could all be placed at once. Among a
/// component's candidate hosts, same-class placements must sit on
/// distinct hosts and at most one of them may be new, so a class admits
/// at most `min(hosts, 1 + preexisting hosts)` of them — and exactly one
/// when the component is a data view, whose same-class replicas never
/// coexist. A graph asking for more occurrences than its classes admit
/// has no feasible mapping. Admissible, not exact: it ignores which
/// occurrence may take which host.
fn multiplicity_feasible(mapper: &Mapper<'_>, graph: &LinkageGraph) -> bool {
    let component = |idx: usize| &graph.nodes[idx].component;
    for first in 0..graph.len() {
        // Once per repeated component, at its first occurrence.
        let repeats = (first + 1..graph.len()).filter(|&idx| component(idx) == component(first));
        if repeats.clone().next().is_none()
            || (0..first).any(|idx| component(idx) == component(first))
        {
            continue;
        }
        let occurrences = std::iter::once(first).chain(repeats);
        let sets: Vec<CandidateSet> = occurrences
            .map(|idx| mapper.candidate_set(graph, idx))
            .collect();
        // The other graphs of the call repeat the component over the
        // same sets: their capacity is worked out once.
        let mut ids: Vec<u32> = sets.iter().map(|set| set.id).collect();
        ids.sort_unstable();
        ids.dedup();
        let known = mapper.memo.borrow().capacity(&ids);
        let capacity = known.unwrap_or_else(|| {
            let capacity = capacity(mapper, component(first), &sets);
            mapper.memo.borrow_mut().record_capacity(ids, capacity);
            capacity
        });
        if sets.len() > capacity {
            return false;
        }
    }
    true
}

/// How many occurrences of `component` its candidate sets `sets` admit
/// ([`multiplicity_feasible`]).
fn capacity(mapper: &Mapper<'_>, component: &str, sets: &[CandidateSet]) -> usize {
    // The occurrences' sets differ only by forced placement; a host in
    // several of them has one identity and counts once.
    let mut hosts: Vec<(Identity, NodeId)> = Vec::new();
    for set in sets {
        hosts.extend(set.identity.iter().copied().zip(set.nodes.iter().copied()));
    }
    hosts.sort_unstable();
    hosts.dedup();
    let data_view = mapper
        .spec
        .get_component(component)
        .is_some_and(|c| c.is_data_view());
    hosts
        .chunk_by(|a, b| a.0.class == b.0.class)
        .map(|class| match data_view {
            true => 1,
            false => {
                let preexisting = class.iter().filter(|(id, _)| id.preexisting).count();
                class.len().min(1 + preexisting)
            }
        })
        .sum()
}

/// The least round trip of a `bytes`-sized exchange over every route
/// from a host of `from` (`None`: the client) to one of set `to`, zero
/// when none exists. Read from the plan memo's least-RTT table; scanned
/// and recorded on the call's first question — each source host's row
/// read once for all its pairs — each pair read counted in
/// `stats.bound_pairs`.
fn least_rtt(
    mapper: &Mapper<'_>,
    from: Option<&CandidateSet>,
    to: &CandidateSet,
    bytes: f64,
    stats: &mut PlanStats,
) -> f64 {
    let parent = from.map(|set| set.id);
    if let Some(rtt) = mapper.memo.borrow().least_rtt(parent, to.id) {
        return rtt;
    }
    let client = [mapper.request.client_node];
    let from_hosts = from.map_or(&client[..], |set| &set.nodes[..]);
    let mut best = f64::INFINITY;
    for &a in from_hosts {
        mapper.route_metrics_from(a, &to.nodes, |route| {
            stats.bound_pairs += 1;
            let rtt = match route {
                Some(route) if !route.is_local() => route.rtt_ms(bytes),
                Some(_) => 0.0,
                None => return true,
            };
            best = best.min(rtt);
            best != 0.0
        });
        if best == 0.0 {
            break;
        }
    }
    let rtt = if best.is_finite() { best } else { 0.0 };
    mapper
        .memo
        .borrow_mut()
        .record_least_rtt(parent, to.id, rtt);
    rtt
}

/// Lower bound of the increment `State::recurse` charges for tree node
/// `idx`, over its whole candidate set (children range over theirs too);
/// `deploy_lb` is the node's row of weighted deployment-cost lower
/// bounds.
fn min_increment(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
    rates: &crate::load::RatePlan,
    sets: &[CandidateSet],
    deploy_lb: &[f64],
    idx: usize,
    stats: &mut PlanStats,
) -> f64 {
    let lp = latency_part(mapper.objective);
    let behavior = mapper.spec.behavior_of(&graph.nodes[idx].component);
    let frac = rates.fraction(idx);
    // The CPU and deployment-cost terms both depend only on the chosen
    // node, so minimising their *sum* over the candidate set stays
    // admissible and is tighter than summing independent minima.
    let min_node = sets[idx]
        .nodes
        .iter()
        .zip(deploy_lb)
        .map(|(&node, &deploy)| {
            lp * frac * behavior.cpu_per_request_ms / mapper.net.node(node).cpu_speed + deploy
        })
        .fold(f64::INFINITY, f64::min);
    let mut bound = min_node;
    if lp > 0.0 {
        for &(_, child) in &graph.nodes[idx].children {
            let cb = mapper.spec.behavior_of(&graph.nodes[child].component);
            let bytes = (cb.bytes_per_request + cb.bytes_per_response) as f64;
            let rtt = least_rtt(mapper, Some(&sets[idx]), &sets[child], bytes, stats);
            bound += lp * rates.fraction(child) * rtt;
        }
        if idx == 0 {
            let bytes = (behavior.bytes_per_request + behavior.bytes_per_response) as f64;
            bound += lp * least_rtt(mapper, None, &sets[0], bytes, stats);
        }
    }
    bound
}

/// A partial assignment as the property flow reads it, filled bottom-up
/// by the descent and by a warm seed's evaluation alike: per tree node
/// its host and, once placed, the plan memo's id of its provided
/// bindings (its part of its parent's flow context), the bindings and
/// its resolved factors.
struct Assignment {
    hosts: Vec<Option<NodeId>>,
    provided_id: Vec<u32>,
    provided: Vec<Option<Rc<ResolvedBindings>>>,
    factors: Vec<Option<Rc<ResolvedBindings>>>,
    /// Scratch for a flow-context key, reused across placements.
    context_key: Vec<u64>,
}

impl Assignment {
    fn new(n: usize) -> Self {
        Assignment {
            hosts: vec![None; n],
            provided_id: vec![0; n],
            provided: vec![None; n],
            factors: vec![None; n],
            context_key: Vec::new(),
        }
    }

    /// Interns the flow context of tree node `idx` — its candidate set
    /// `set` and each child's `(host, provided)` pair, the only placement
    /// state the flow reads — and returns the verdict cell of the set's
    /// first candidate; candidate `ci` reads cell `+ ci`. `None` while a
    /// child is unplaced.
    fn flow_context(
        &mut self,
        mapper: &Mapper<'_>,
        graph: &LinkageGraph,
        idx: usize,
        set: &CandidateSet,
    ) -> Option<usize> {
        self.context_key.clear();
        self.context_key.push(u64::from(set.id));
        for &(_, child) in &graph.nodes[idx].children {
            let child_node = self.hosts[child]?;
            self.context_key
                .push((u64::from(child_node.0) << 32) | u64::from(self.provided_id[child]));
        }
        let mut memo = mapper.memo.borrow_mut();
        Some(memo.flow_context(&self.context_key, set.nodes.len()))
    }

    /// Property flow for `idx` at `node`: read from verdict cell `cell`
    /// of the plan memo, computed (counted in `stats.flow_evals`) and
    /// recorded there on first sight. The flow is a pure function of
    /// (component, host, children's hosts and provided bindings), and
    /// the descent re-derives identical verdicts across every variation
    /// of the *deeper* — already placed, irrelevant — subtree and across
    /// the plan's other graphs, so nearly every visit is a table read.
    fn flow(
        &self,
        mapper: &Mapper<'_>,
        graph: &LinkageGraph,
        idx: usize,
        node: NodeId,
        cell: usize,
        stats: &mut PlanStats,
    ) -> Option<FlowOutcome> {
        match mapper.memo.borrow().verdict(cell) {
            Verdict::Infeasible => return None,
            Verdict::Feasible(outcome) => return Some(outcome.clone()),
            Verdict::Unknown => {}
        }
        stats.flow_evals += 1;
        let computed = mapper.flow_and_factors_at(graph, idx, node, &self.hosts, &self.provided);
        mapper.memo.borrow_mut().record_flow(cell, computed)
    }

    fn place(&mut self, idx: usize, node: NodeId, outcome: FlowOutcome) {
        self.hosts[idx] = Some(node);
        self.provided_id[idx] = outcome.provided_id;
        self.provided[idx] = Some(outcome.provided);
        self.factors[idx] = Some(outcome.factors);
    }

    fn unplace(&mut self, idx: usize) {
        self.hosts[idx] = None;
        self.provided[idx] = None;
        self.factors[idx] = None;
    }
}

/// The objective [`Mapper::evaluate`] gives `hosts` on `graph`, or
/// `None` when a host lies outside its tree node's candidate set or the
/// evaluator rejects the mapping: a warm seed's value. Set membership is
/// condition 1 (what `evaluate` checks first), each node's property flow
/// is read from or recorded in the plan memo's verdict table — the cells
/// the descent reads — and the one evaluator body,
/// [`Mapper::evaluate_reusing_flow`], prices the whole.
pub(crate) fn seed_value(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
    hosts: &[NodeId],
    stats: &mut PlanStats,
) -> Option<f64> {
    let mut cells = Vec::with_capacity(hosts.len());
    for (idx, host) in hosts.iter().enumerate() {
        let set = mapper.candidate_set(graph, idx);
        let ci = set.nodes.iter().position(|node| node == host)?;
        cells.push((set, ci));
    }
    let mut assignment = Assignment::new(hosts.len());
    for idx in graph.bottom_up_order() {
        let (set, ci) = &cells[idx];
        let row = assignment.flow_context(mapper, graph, idx, set)?;
        let outcome = assignment.flow(mapper, graph, idx, hosts[idx], row + ci, stats)?;
        assignment.place(idx, hosts[idx], outcome);
    }
    let rates = mapper.rates(graph);
    let (provided, factors) = (&assignment.provided, &assignment.factors);
    let eval = mapper.evaluate_reusing_flow(graph, hosts, provided, factors, &rates)?;
    Some(eval.objective_value)
}

struct State<'a, 'b> {
    mapper: &'a Mapper<'b>,
    graph: &'a LinkageGraph,
    order: Vec<usize>,
    /// Per tree node, its candidate set as the plan memo holds it: the
    /// set's id, the hosts, and per host its instance-identity entry.
    sets: Vec<CandidateSet>,
    rates: crate::load::RatePlan,
    suffix_bound: Vec<f64>,
    /// Per descent position, the summed minimum increments of the tree
    /// nodes placed before it: the least partial that can arrive there.
    placed_bound: Vec<f64>,
    /// Per tree node and candidate (same index as the set's hosts),
    /// every node-only objective term precomputed: deployment cost, own
    /// CPU share, and (for the root) the client edge — summed in the
    /// same order the evaluator charges them, so partials stay
    /// bit-identical.
    static_cost: Vec<Vec<f64>>,
    /// Per tree node and candidate, the chain bound (module docs);
    /// empty until [`State::build_chain_bound`] ran.
    chain_bound: Vec<Vec<f64>>,
    /// Per tree node, the weight its parent edge carries in the
    /// objective: latency weight × request fraction.
    edge_w: Vec<f64>,
    /// Per tree node, the request + response bytes its parent edge moves.
    edge_bytes: Vec<f64>,
    bounding: bool,
    lp: f64,
    /// Per tree node, the other tree nodes sharing its component.
    same_component: Vec<Vec<usize>>,
    /// Per tree node, whether its component is a data view.
    data_view: Vec<bool>,
    incumbent: &'a Incumbent,
    assignment: Assignment,
    /// Per placed tree node, the identity entry of its host.
    placed: Vec<Identity>,
    best: Option<(Vec<NodeId>, Evaluation)>,
    stats: &'a mut PlanStats,
}

impl<'a, 'b> State<'a, 'b> {
    /// Resolves the candidate sets of `graph` and every per-candidate
    /// term the descent reads; `None` when some tree node has no
    /// candidate host.
    fn new(
        mapper: &'a Mapper<'b>,
        graph: &'a LinkageGraph,
        stats: &'a mut PlanStats,
        incumbent: &'a Incumbent,
    ) -> Option<Self> {
        let n = graph.len();
        let order = graph.bottom_up_order();
        let sets: Vec<CandidateSet> = (0..n).map(|i| mapper.candidate_set(graph, i)).collect();
        let candidates: Vec<&[NodeId]> = sets.iter().map(|set| &set.nodes[..]).collect();
        if candidates.iter().any(|c| c.is_empty()) {
            return None;
        }

        // `MaxCapacity` negates the sustainable rate: the objective is not
        // an additive sum of placement increments, so the bound is
        // inadmissible there and bounding is disabled.
        let bounding = !matches!(mapper.objective, Objective::MaxCapacity);
        let rates = mapper.rates(graph);
        let lp = latency_part(mapper.objective);
        let cp = cost_part(mapper.objective);

        // Per tree node and candidate, the weighted lower bound of the
        // deployment cost the evaluator charges: zero when the placement
        // might attach to a pinned/existing instance (`attachable`;
        // whether the factors match too is the evaluator's question),
        // else exactly its term — code transfer from the effective
        // origin plus startup. A function of the candidate set alone,
        // so worked out once per call.
        let origin = mapper.request.effective_origin();
        let deploy_lb: Vec<Rc<[f64]>> = (0..n)
            .map(|idx| {
                let set = &sets[idx];
                if let Some(floors) = mapper.memo.borrow().deploy_floors(set.id) {
                    return floors;
                }
                let size = mapper
                    .spec
                    .behavior_of(&graph.nodes[idx].component)
                    .code_size;
                let hosts = set.nodes.iter().zip(&set.identity[..]);
                let floors: Rc<[f64]> = hosts
                    .map(|(&node, id)| match bounding && cp > 0.0 && !id.attachable {
                        true => cp * (mapper.transfer_ms(origin, node, size) + STARTUP_COST_MS),
                        false => 0.0,
                    })
                    .collect();
                let recorded = Rc::clone(&floors);
                mapper
                    .memo
                    .borrow_mut()
                    .record_deploy_floors(set.id, recorded);
                floors
            })
            .collect();

        // Admissible per-tree-node lower bounds over each candidate set,
        // mirroring the increments charged during recursion, summed over
        // what is still to place and over what already is.
        let mut suffix_bound = vec![0.0; n + 1];
        let mut placed_bound = vec![0.0; n + 1];
        if bounding && (lp > 0.0 || cp > 0.0) {
            let least: Vec<f64> = (0..n)
                .map(|idx| min_increment(mapper, graph, &rates, &sets, &deploy_lb[idx], idx, stats))
                .collect();
            for pos in (0..n).rev() {
                suffix_bound[pos] = suffix_bound[pos + 1] + least[order[pos]];
            }
            for pos in 0..n {
                placed_bound[pos + 1] = placed_bound[pos] + least[order[pos]];
            }
        }

        // Node-only objective terms, resolved per candidate once so the
        // descent's hot loop reads an array slot instead of re-running
        // route-cache lookups at every visit: the deployment-cost part,
        // the CPU share, and (for the root) the client edge — summed in
        // exactly the order the increment historically charged them,
        // keeping the accumulated partial bit-identical. All zeros for
        // an objective with no latency or cost part.
        let client = mapper.request.client_node;
        let static_cost: Vec<Vec<f64>> = (0..n)
            .map(|idx| {
                let behavior = mapper.spec.behavior_of(&graph.nodes[idx].component);
                let frac = rates.fraction(idx);
                let hosts = candidates[idx].iter().zip(deploy_lb[idx].iter());
                hosts
                    .map(|(&node, &deploy)| {
                        let mut cost = deploy;
                        if lp > 0.0 {
                            let speed = mapper.net.node(node).cpu_speed;
                            cost += lp * frac * behavior.cpu_per_request_ms / speed;
                            if idx == 0 {
                                if let Some(route) = mapper.route_metrics(client, node) {
                                    if !route.is_local() {
                                        let bytes = (behavior.bytes_per_request
                                            + behavior.bytes_per_response)
                                            as f64;
                                        cost += lp * route.rtt_ms(bytes);
                                    }
                                }
                            }
                        }
                        cost
                    })
                    .collect()
            })
            .collect();

        // Per tree node, the latency weight × fraction and
        // request+response bytes its parent edge is charged with — read
        // by the descent for edges to already-placed children.
        let edge_w: Vec<f64> = (0..n).map(|idx| lp * rates.fraction(idx)).collect();
        let edge_bytes: Vec<f64> = (0..n)
            .map(|idx| {
                let b = mapper.spec.behavior_of(&graph.nodes[idx].component);
                (b.bytes_per_request + b.bytes_per_response) as f64
            })
            .collect();

        // Same-component sibling lists for the instance-identity rules.
        // Empty for graphs whose components are all distinct.
        let same_component: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i && graph.nodes[j].component == graph.nodes[i].component)
                    .collect()
            })
            .collect();
        let data_view: Vec<bool> = (0..n)
            .map(|i| {
                mapper
                    .spec
                    .get_component(&graph.nodes[i].component)
                    .is_some_and(|c| c.is_data_view())
            })
            .collect();

        Some(State {
            mapper,
            graph,
            order,
            sets,
            rates,
            suffix_bound,
            placed_bound,
            static_cost,
            chain_bound: Vec::new(),
            edge_w,
            edge_bytes,
            bounding,
            lp,
            same_component,
            data_view,
            incumbent,
            assignment: Assignment::new(n),
            placed: vec![Identity::default(); n],
            best: None,
            stats,
        })
    }

    /// The dynamic half of the incremental objective cost of placing
    /// `idx` at `node`: the edges to its already-placed — thanks to
    /// bottom-up order — children. Everything node-only (CPU share,
    /// deployment cost, the root's client edge) lives precomputed in
    /// `static_cost`; together they charge the same terms
    /// [`Mapper::evaluate`] charges, each weighted as the objective
    /// weights them. At a complete assignment the accumulated partial
    /// therefore equals the full objective exactly, except when a
    /// might-be-preexisting placement's factors end up not matching —
    /// then the partial undershoots, which keeps the bound admissible.
    fn child_edge_cost(&self, idx: usize, node: NodeId, base: f64) -> f64 {
        if self.lp == 0.0 {
            return base;
        }
        // Accumulate onto `base` in the original charge order so the
        // running partial stays bit-identical to the pre-split math.
        let mut cost = base;
        for &(_, child) in &self.graph.nodes[idx].children {
            let Some(child_node) = self.assignment.hosts[child] else {
                continue;
            };
            if let Some(route) = self.mapper.route_metrics(node, child_node) {
                cost += self.edge_w[child] * route.rtt_ms(self.edge_bytes[child]);
            }
        }
        cost
    }

    /// The evaluator's instance-identity rules, applied to `idx` placed
    /// at `node` (identity entry `id`) against every already-placed
    /// same-component tree node: two on one host would deploy as a
    /// single instance linked to itself, a plan may create at most one
    /// *new* instance per (component, factors) configuration, and
    /// same-configured data views never chain. Any violation here holds
    /// in every completion of the current partial assignment.
    fn identity_clash(&self, idx: usize, node: NodeId, id: Identity) -> bool {
        self.same_component[idx].iter().any(|&j| {
            self.assignment.hosts[j].is_some_and(|other| {
                let placed = self.placed[j];
                other == node
                    || (placed.class == id.class
                        && (self.data_view[idx] || !(placed.preexisting || id.preexisting)))
            })
        })
    }

    /// Best objective known anywhere: this graph's own best, improved by
    /// the cross-graph incumbent. `INFINITY` disables cuts.
    fn threshold(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |(_, b)| b.objective_value)
            .min(self.incumbent.get())
    }

    /// Fills `chain_bound`, top-down, for cuts against `threshold` or
    /// anything lower — the descent calls it once, the first time it
    /// holds the objective of a feasible mapping. The cell of tree node
    /// `idx` at host `m` is the least, over its parent's cells, of the
    /// parent's node terms, the parent's own cell and the edge between
    /// the two hosts; parents are scanned in ascending cost and the scan
    /// ends at the first that alone costs the running best, the edge
    /// being non-negative.
    ///
    /// A cell is only worth that scan while an O(1) estimate of a whole
    /// mapping through it stays within the threshold: the least partial
    /// that can arrive at its position, its node terms, and the larger of
    /// the suffix bound and the *corridor floor* — the uncharged walk
    /// client → root → … → `m` is at least `d(client, m)` long by the
    /// triangle inequality, each edge weighted by no less than the
    /// smallest flow fraction on the path and charged as a round trip.
    /// Cells the estimate rules out stay at +∞ unscanned: every mapping
    /// through one is strictly worse than a known one, so the descent
    /// cuts them and deeper rows skip them as parents. Without the
    /// filter two whole-network sets in sequence cost their product.
    fn build_chain_bound(&mut self, threshold: f64) {
        let n = self.graph.len();
        let parents = self.graph.parents();
        let client = self.mapper.request.client_node;
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); n];
        // Smallest flow fraction on the path from the root.
        let mut thinnest = vec![1.0f64; n];
        // The parent's cells as (node terms + own cell, host), ascending.
        let mut scan: Vec<(f64, NodeId)> = Vec::new();
        for pos in (0..n).rev() {
            let idx = self.order[pos];
            let mut corridor = 0.0;
            if let Some(parent) = parents[idx] {
                thinnest[idx] = thinnest[parent].min(self.rates.fraction(idx));
                corridor = self.lp * 2.0 * thinnest[idx];
                scan.clear();
                let cells = self.static_cost[parent].iter().zip(&rows[parent]);
                let hosts = self.sets[parent].nodes.iter();
                let costed = cells
                    .zip(hosts)
                    .map(|((own, above), &host)| (own + above, host));
                scan.extend(costed.filter(|(cost, _)| cost.is_finite()));
                scan.sort_by(|a, b| a.0.total_cmp(&b.0));
            }
            let mut row = Vec::with_capacity(self.sets[idx].nodes.len());
            for (&node, own) in self.sets[idx].nodes.iter().zip(&self.static_cost[idx]) {
                let mut floor = 0.0;
                if corridor > 0.0 {
                    self.stats.bound_cells += 1;
                    if let Some(route) = self.mapper.route_metrics(client, node) {
                        floor = corridor * route.latency.as_millis_f64();
                    }
                }
                let least = self.placed_bound[pos] + own + self.suffix_bound[pos + 1].max(floor);
                if least * CHAIN_MARGIN > threshold {
                    row.push(f64::INFINITY);
                    continue;
                }
                if parents[idx].is_none() {
                    row.push(0.0);
                    continue;
                }
                let mut best = f64::INFINITY;
                for &(above, from) in &scan {
                    if above >= best {
                        break;
                    }
                    self.stats.bound_cells += 1;
                    // No route: the pair fails every completion's flow.
                    if let Some(route) = self.mapper.route_metrics(from, node) {
                        let edge = self.edge_w[idx] * route.rtt_ms(self.edge_bytes[idx]);
                        best = best.min(above + edge);
                    }
                }
                row.push(best);
            }
            rows[idx] = row;
        }
        for cell in rows.iter_mut().flatten() {
            *cell *= CHAIN_MARGIN;
        }
        self.chain_bound = rows;
    }

    /// Admissible estimate of what placing `idx` (descent position
    /// `pos`) on its candidate `ci` leaves to pay. The suffix bound and
    /// the chain bound overlap on the ancestors' terms, so they combine
    /// by max, not sum.
    fn remaining(&self, pos: usize, idx: usize, ci: usize) -> f64 {
        let chain = self.chain_bound.get(idx).map_or(0.0, |row| row[ci]);
        self.suffix_bound[pos + 1].max(chain)
    }

    /// What the descent compares against the threshold for placing
    /// `idx` (position `pos`) on candidate `ci` at cost `inc`, with
    /// `penalty` charged for the avoided hosts placed so far, this one
    /// included. The penalty enters with `CHAIN_MARGIN` (module docs);
    /// without one the bound is the bare sum.
    fn cut_bound(&self, partial: f64, inc: f64, penalty: f64, pos: usize, ci: usize) -> f64 {
        let bound = partial + inc + self.remaining(pos, self.order[pos], ci);
        if penalty > 0.0 {
            (bound + penalty) * CHAIN_MARGIN
        } else {
            bound
        }
    }

    /// Descends from position `pos` with `partial` accumulated and
    /// `penalty` charged for the avoided hosts placed so far.
    fn recurse(&mut self, pos: usize, partial: f64, penalty: f64) {
        if self.bounding {
            // Strict comparison: cut only subtrees whose every completion
            // is strictly worse than a known feasible mapping (whose
            // objective upper-bounds its own latency part). Equal-bound
            // subtrees are still explored, so tie-breaks — including
            // MinLatency's tiny deployment-cost term — resolve exactly
            // as in an unbounded descent.
            let bound = partial + self.suffix_bound[pos];
            if bound > self.threshold() {
                self.stats.bound_prunes += 1;
                return;
            }
        }
        if pos == self.order.len() {
            // Every tree index is placed once the order is exhausted; if
            // that invariant were ever violated, treat the branch as
            // infeasible rather than panic on the hot path (ps-lint P001).
            let Some(assignment) = self
                .assignment
                .hosts
                .iter()
                .copied()
                .collect::<Option<Vec<NodeId>>>()
            else {
                debug_assert!(false, "search completed with unplaced component");
                return;
            };
            self.stats.mappings_evaluated += 1;
            // The descent's property flow, resolved factors, and the
            // per-graph rate plan go to the evaluator as they are (one
            // flow/configure per node already ran, rates were computed
            // once up front).
            let eval = self.mapper.evaluate_reusing_flow(
                self.graph,
                &assignment,
                &self.assignment.provided,
                &self.assignment.factors,
                &self.rates,
            );
            if let Some(eval) = eval {
                let better = self
                    .best
                    .as_ref()
                    .is_none_or(|(_, b)| eval.objective_value < b.objective_value);
                if better {
                    self.incumbent.offer(eval.objective_value);
                    self.best = Some((assignment, eval));
                }
            }
            return;
        }
        let idx = self.order[pos];
        // The children are placed, so their context is the same for
        // every candidate below: intern it once and each candidate's
        // verdict is an array read.
        let Some(row) = self
            .assignment
            .flow_context(self.mapper, self.graph, idx, &self.sets[idx])
        else {
            debug_assert!(false, "child placed before parent");
            return;
        };
        for ci in 0..self.sets[idx].nodes.len() {
            let node = self.sets[idx].nodes[ci];
            let id = self.sets[idx].identity[ci];
            if self.identity_clash(idx, node, id) {
                // Every completion is infeasible: skip before paying for
                // the bound or property flow.
                self.stats.prunes += 1;
                continue;
            }
            // All zeros when bounding is off (`MaxCapacity` weighs
            // neither latency nor cost).
            let inc = self.child_edge_cost(idx, node, self.static_cost[idx][ci]);
            let threshold = self.threshold();
            // Edges cost nothing without a latency part: the chain would
            // repeat the suffix bound.
            if self.chain_bound.is_empty() && self.lp > 0.0 && threshold.is_finite() {
                self.build_chain_bound(threshold);
            }
            let penalty = penalty + self.mapper.avoidance_penalty(node);
            if self.bounding && self.cut_bound(partial, inc, penalty, pos, ci) > threshold {
                // This placement already costs more than a known complete
                // mapping — skip it before paying for property flow.
                self.stats.bound_prunes += 1;
                continue;
            }
            let cell = row + ci;
            let flow = self
                .assignment
                .flow(self.mapper, self.graph, idx, node, cell, self.stats);
            let Some(outcome) = flow else {
                self.stats.prunes += 1;
                continue;
            };
            self.assignment.place(idx, node, outcome);
            self.placed[idx] = id;
            self.recurse(pos + 1, partial + inc, penalty);
            self.assignment.unplace(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_linkages, LinkageLimits, ServiceRequest};
    use ps_net::{Credentials, Mapping, MappingTranslator, Network, ScopedRoutes};
    use ps_sim::{Rng, SimDuration};
    use ps_spec::prelude::*;
    use std::sync::Arc;

    fn secure(level: i64) -> Bindings {
        Bindings::new()
            .bind_lit("Secure", true)
            .bind_lit("Level", level)
    }

    /// Client → Relay* → Server, the shape of the agreement tests'
    /// `random_spec`: relays re-assert security and thin the flow by `rrf`.
    fn chain_spec(relays: usize, rrf: f64) -> ServiceSpec {
        let mut spec = ServiceSpec::new("gen")
            .property(Property::boolean("Secure"))
            .property(Property::interval("Level", 1, 9))
            .interface(Interface::new("Api", ["Secure", "Level"]))
            .rule(ModificationRule::boolean_and("Secure"))
            .component(
                Component::new("Server")
                    .implements(InterfaceRef::with_bindings("Api", secure(9)))
                    .behavior(
                        Behavior::new()
                            .cpu_per_request_ms(1.0)
                            .message_bytes(1024, 1024),
                    ),
            )
            .component(
                Component::new("Client")
                    .implements(InterfaceRef::with_bindings(
                        "Api",
                        Bindings::new().bind_lit("Level", 1i64),
                    ))
                    .requires(InterfaceRef::with_bindings("Api", secure(2)))
                    .behavior(
                        Behavior::new()
                            .cpu_per_request_ms(0.2)
                            .message_bytes(1024, 1024),
                    ),
            );
        for i in 0..relays {
            spec = spec.component(
                Component::new(format!("Relay{i}"))
                    .implements(InterfaceRef::with_bindings(
                        "Api",
                        Bindings::new().bind_lit("Secure", true),
                    ))
                    .requires(InterfaceRef::with_bindings("Api", secure(1)))
                    .behavior(
                        Behavior::new()
                            .cpu_per_request_ms(0.5)
                            .rrf(rrf)
                            .code_size(40_000 * (i as u64 + 1))
                            .message_bytes(1024, 512),
                    ),
            );
        }
        spec
    }

    /// [`chain_spec`] whose server fans out to three backends, the shape
    /// of the agreement tests' `fanout_spec`: `Store` directly or through
    /// a cache, `Index`, and a roaming `Auth`.
    fn tree_spec(rrf: f64) -> ServiceSpec {
        let mut spec = chain_spec(1, rrf);
        for leaf in ["Store", "Index", "Auth"] {
            spec = spec
                .interface(Interface::new(leaf, ["Secure", "Level"]))
                .component(
                    Component::new(format!("{leaf}Server"))
                        .implements(InterfaceRef::with_bindings(leaf, secure(9)))
                        .behavior(
                            Behavior::new()
                                .cpu_per_request_ms(0.3)
                                .message_bytes(512, 512),
                        ),
                );
        }
        spec.component(
            Component::new("StoreCache")
                .implements(InterfaceRef::with_bindings("Store", secure(5)))
                .requires(InterfaceRef::with_bindings("Store", secure(1)))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(0.1)
                        .rrf(0.25)
                        .message_bytes(512, 512),
                ),
        )
        .component(
            Component::new("Server")
                .implements(InterfaceRef::with_bindings("Api", secure(9)))
                .requires(InterfaceRef::with_bindings("Store", secure(1)))
                .requires(InterfaceRef::with_bindings("Index", secure(1)))
                .requires(InterfaceRef::with_bindings("Auth", secure(1)))
                .behavior(
                    Behavior::new()
                        .cpu_per_request_ms(1.0)
                        .message_bytes(1024, 1024),
                ),
        )
    }

    /// Two or three two-host sites on a secure line of seeded WAN
    /// latencies, plus `island`, a host no link reaches: a candidate
    /// like any other whose every route is `None`.
    fn island_net(rng: &mut Rng) -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let mut hosts = Vec::new();
        let trusted = || Credentials::new().with("Secure", true);
        for site in 0..2 + rng.next_below(2) {
            for n in 0..2 {
                let speed = 1.0 + rng.next_below(3) as f64;
                let name = format!("s{site}n{n}");
                hosts.push(net.add_node(name, format!("site{site}"), speed, Credentials::new()));
            }
            let (a, b) = (hosts[hosts.len() - 2], hosts[hosts.len() - 1]);
            net.add_link(a, b, SimDuration::from_micros(100), 1e8, trusted());
            if site > 0 {
                let wan = SimDuration::from_millis(5 + rng.next_below(120));
                let bandwidth = 8e6 + rng.next_below(64) as f64 * 1e6;
                net.add_link(hosts[hosts.len() - 4], a, wan, bandwidth, trusted());
            }
        }
        net.add_node("island", "nowhere", 2.0, Credentials::new());
        (net, hosts)
    }

    fn translator() -> MappingTranslator {
        MappingTranslator::new()
            .link_mapping(Mapping::Copy {
                credential: "Secure".into(),
                property: "Secure".into(),
                default: ps_spec::PropertyValue::Bool(false),
            })
            .node_mapping(Mapping::Constant {
                property: "Secure".into(),
                value: ps_spec::PropertyValue::Bool(true),
            })
    }

    /// The bound [`State::recurse`] cuts on at every depth of the
    /// descent path that ends in `hosts`.
    fn bounds_along(state: &mut State<'_, '_>, hosts: &[NodeId]) -> Vec<f64> {
        let (mut partial, mut penalty) = (0.0, 0.0);
        let mut bounds = Vec::new();
        for pos in 0..state.order.len() {
            let idx = state.order[pos];
            let at = |&host: &NodeId| host == hosts[idx];
            let ci = state.sets[idx]
                .nodes
                .iter()
                .position(at)
                .expect("candidate");
            let inc = state.child_edge_cost(idx, hosts[idx], state.static_cost[idx][ci]);
            penalty += state.mapper.avoidance_penalty(hosts[idx]);
            bounds.push(state.cut_bound(partial, inc, penalty, pos, ci));
            partial += inc;
            state.assignment.hosts[idx] = Some(hosts[idx]);
        }
        state.assignment.hosts.fill(None);
        bounds
    }

    /// Every complete assignment over the candidate sets the evaluator
    /// accepts, with its objective.
    fn feasible_mappings(
        mapper: &Mapper<'_>,
        graph: &LinkageGraph,
        sets: &[CandidateSet],
    ) -> Vec<(Vec<NodeId>, f64)> {
        let mut found = Vec::new();
        let mut pick = vec![0usize; sets.len()];
        loop {
            let hosts: Vec<NodeId> = pick.iter().zip(sets).map(|(&i, s)| s.nodes[i]).collect();
            if let Some(eval) = mapper.evaluate(graph, &hosts) {
                found.push((hosts, eval.objective_value));
            }
            let mut digit = 0;
            loop {
                if digit == pick.len() {
                    return found;
                }
                pick[digit] += 1;
                if pick[digit] < sets[digit].nodes.len() {
                    break;
                }
                pick[digit] = 0;
                digit += 1;
            }
        }
    }

    /// Rebuilds the chain bound against `threshold` and asserts, along
    /// the descent path of every mapping within it, that `partial +
    /// remaining` never exceeds the mapping's objective. Returns how
    /// many paths start on an exact bound.
    fn assert_no_overshoot(
        state: &mut State<'_, '_>,
        mappings: &[(Vec<NodeId>, f64)],
        threshold: f64,
        context: &str,
    ) -> usize {
        if state.lp > 0.0 {
            state.build_chain_bound(threshold);
        }
        let mut exact = 0;
        for (hosts, value) in mappings.iter().filter(|m| m.1 <= threshold) {
            let bounds = bounds_along(state, hosts);
            // The descent's own partial rounds within a few ulps of the
            // evaluator's sum.
            let ceiling = value * (1.0 + 8.0 * f64::EPSILON);
            for (pos, bound) in bounds.iter().enumerate() {
                assert!(
                    *bound <= ceiling,
                    "{context} {hosts:?}: bound {bound} at depth {pos} overshoots {value}"
                );
            }
            exact += usize::from(bounds[0] >= value * (1.0 - 1e-9));
        }
        exact
    }

    /// Every host tuple over the candidate sets, feasible or not.
    fn host_tuples(sets: &[CandidateSet]) -> Vec<Vec<NodeId>> {
        let mut tuples = vec![Vec::new()];
        for set in sets {
            tuples = tuples
                .iter()
                .flat_map(|tuple| {
                    set.nodes.iter().map(move |&host| {
                        let mut longer = tuple.clone();
                        longer.push(host);
                        longer
                    })
                })
                .collect();
        }
        tuples
    }

    /// A warm seed priced through the plan memo has exactly the value the
    /// memo-free [`Mapper::evaluate`] gives it, bit for bit, and is
    /// rejected exactly when the evaluator rejects it: on a cold memo,
    /// where the seed computes and records each flow, and again after
    /// every graph was searched, where it reads the cells the descents
    /// left. Half the networks carry an insecure WAN link, so a flow
    /// depends on its host. A host outside its candidate set, such as a
    /// pinned server moved off its pin, is no seed.
    #[test]
    fn a_seed_priced_through_the_memo_is_the_evaluators_value() {
        let limits = LinkageLimits {
            max_repeats: 1,
            max_depth: 6,
            max_graphs: 64,
        };
        let translator = translator();
        let (mut compared, mut feasible, mut read_back) = (0, 0, 0);
        for case in 0..8u64 {
            let mut rng = Rng::seed_from_u64(case).derive("seed-value");
            let (mut net, hosts) = island_net(&mut rng);
            if case % 2 == 0 {
                // The first WAN link turns insecure: a relay's flow then
                // depends on which side of it the relay sits.
                net.link_mut(ps_net::LinkId(2)).credentials = Credentials::new();
            }
            let spec = match case % 4 == 3 {
                true => tree_spec(0.5),
                false => chain_spec(1 + (case % 2) as usize, *rng.choose(&[0.1, 1.0])),
            };
            let mut other_factors = ps_spec::ResolvedBindings::new();
            other_factors.insert("Level", ps_spec::PropertyValue::Int(7));
            let mut request = ServiceRequest::new("Api", *hosts.last().expect("hosts"))
                .rate(2.0)
                .pin("Server", hosts[0])
                .origin(hosts[0])
                .avoid(*rng.choose(&hosts))
                .existing_instance("Relay0", *rng.choose(&hosts), other_factors);
            if case % 4 == 3 {
                request = request.pin("StoreServer", hosts[2]);
            }
            if case % 2 == 1 {
                request = request.free_root();
            }
            let graphs = enumerate_linkages(&spec, "Api", &limits);
            let routes = Arc::new(ScopedRoutes::new());
            let objective = Objective::MinLatency;
            let mapper = Mapper::new(&spec, &net, &translator, &request, objective, routes);
            let fresh = || {
                let routes = Arc::new(ScopedRoutes::new());
                Mapper::new(&spec, &net, &translator, &request, objective, routes)
            };
            let tuples: Vec<(&LinkageGraph, Vec<NodeId>)> = graphs
                .iter()
                .flat_map(|graph| {
                    let sets: Vec<CandidateSet> = (0..graph.len())
                        .map(|i| mapper.candidate_set(graph, i))
                        .collect();
                    host_tuples(&sets)
                        .into_iter()
                        .map(move |hosts| (graph, hosts))
                })
                .collect();
            let mut stats = PlanStats::default();
            for searched in [false, true] {
                if searched {
                    let incumbent = Incumbent::new();
                    for graph in &graphs {
                        search(&mapper, graph, &mut stats, &incumbent);
                    }
                }
                let evals_before = stats.flow_evals;
                for (graph, hosts) in &tuples {
                    let seeded = seed_value(&mapper, graph, hosts, &mut stats);
                    let evaluated = fresh().evaluate(graph, hosts).map(|e| e.objective_value);
                    assert_eq!(
                        seeded.map(f64::to_bits),
                        evaluated.map(f64::to_bits),
                        "case {case} {graph} {hosts:?} (searched first: {searched})"
                    );
                    compared += 1;
                    feasible += usize::from(seeded.is_some());
                }
                if searched {
                    // Every cell the seeds ask for is already known.
                    assert_eq!(stats.flow_evals, evals_before, "case {case}");
                    read_back += tuples.len();
                }
            }
            // The pinned server moved off its pin: no seed.
            let (graph, hosts_of) = &tuples[0];
            let server = graph.nodes.iter().position(|n| n.component == "Server");
            let mut moved = hosts_of.clone();
            moved[server.expect("every graph ends in the server")] = hosts[1];
            assert_eq!(seed_value(&mapper, graph, &moved, &mut stats), None);
        }
        assert!(
            compared > 500 && feasible > 100 && read_back > 200,
            "the generator went vacuous: {compared} seeds, {feasible} feasible, \
             {read_back} read back"
        );
    }

    /// The cut charges the avoidance penalty under `CHAIN_MARGIN`. The
    /// descent sums a mapping's terms in another order than the
    /// evaluator, so its partial can sit an ulp above the evaluator's
    /// sum; added to a penalty of 10⁶ that ulp can round up to the next
    /// representable value where the evaluator's sum rounds down. Here
    /// the same three terms, summed `(a + b) + c` by a descent and `a +
    /// (b + c)` by an evaluator, do: without the margin a placement whose
    /// completion only ties the incumbent at the evaluator's own value
    /// would be cut.
    #[test]
    fn the_penalty_margin_absorbs_the_ulp_a_penalty_rounds_up() {
        let (a, b, c) = (19.86602279112022, 6.306720956152541, 0.571878593211297);
        let objective = a + (b + c) + crate::AVOID_PENALTY;
        assert!(
            (a + b) + c + crate::AVOID_PENALTY > objective,
            "the terms no longer round apart across the penalty"
        );

        let mut rng = Rng::seed_from_u64(0).derive("chain-bound");
        let (net, hosts) = island_net(&mut rng);
        let spec = chain_spec(1, 0.5);
        let request = ServiceRequest::new("Api", hosts[1]).pin("Server", hosts[0]);
        let graphs = enumerate_linkages(&spec, "Api", &LinkageLimits::default());
        let (translator, routes) = (translator(), Arc::new(ScopedRoutes::new()));
        let objective_kind = Objective::MinLatency;
        let mapper = Mapper::new(&spec, &net, &translator, &request, objective_kind, routes);
        let (mut stats, incumbent) = (PlanStats::default(), Incumbent::new());
        let state = State::new(&mapper, &graphs[0], &mut stats, &incumbent).expect("candidates");
        // The root is placed last, with nothing left to bound.
        let root = state.order.len() - 1;
        assert!(state.chain_bound.is_empty() && state.remaining(root, 0, 0) == 0.0);
        let bound = state.cut_bound(a + b, c, crate::AVOID_PENALTY, root, 0);
        assert!(
            bound <= objective,
            "a completion tying the incumbent is cut: bound {bound} > {objective}"
        );
    }

    /// The bound never overshoots: along the descent path of every
    /// feasible mapping — chains and fan-out trees, every bounded
    /// objective, rows built unfiltered and against the worst and the
    /// best feasible objective — the bound the descent cuts on stays at
    /// or below the mapping's objective at each depth. The requests
    /// carry what makes the bound undershoot rather than match, or sum
    /// its terms in another order: an avoided host (its penalty is
    /// charged once placed, after the other terms), a live relay whose
    /// factors do not match (attachable, so the bound charges it no
    /// deployment, yet deployed), and the unreachable island among the
    /// candidates.
    #[test]
    fn the_bound_never_overshoots_a_feasible_mapping() {
        let objectives = [
            Objective::MinLatency,
            Objective::MinCost,
            Objective::Weighted {
                latency_weight: 1.0,
                cost_weight: 0.01,
            },
        ];
        let limits = LinkageLimits {
            max_repeats: 1,
            max_depth: 6,
            max_graphs: 64,
        };
        let translator = translator();
        let (mut paths, mut exact, mut penalised, mut mismatched) = (0, 0, 0, 0);
        for case in 0..12u64 {
            let mut rng = Rng::seed_from_u64(case).derive("chain-bound");
            let (net, hosts) = island_net(&mut rng);
            let island = net.find_node("island").expect("exists");
            let rrf = *rng.choose(&[0.1, 0.5, 1.0]);
            let tree = case % 4 == 3;
            let spec = match tree {
                true => tree_spec(rrf),
                false => chain_spec(1 + (case % 2) as usize, rrf),
            };
            let (avoided, live) = (*rng.choose(&hosts), *rng.choose(&hosts));
            let mut other_factors = ps_spec::ResolvedBindings::new();
            other_factors.insert("Level", ps_spec::PropertyValue::Int(7));
            let client = *hosts.last().expect("hosts");
            let mut request = ServiceRequest::new("Api", client)
                .rate(2.0)
                .pin("Server", hosts[0])
                .origin(hosts[0])
                .avoid(avoided)
                .existing_instance("Relay0", live, other_factors);
            if tree {
                request = request
                    .pin("StoreServer", hosts[2])
                    .pin("IndexServer", hosts[2]);
            }
            if case % 2 == 1 {
                request = request.free_root();
            }
            let graphs = enumerate_linkages(&spec, "Api", &limits);
            let routes = Arc::new(ScopedRoutes::new());
            for (objective, graph) in objectives
                .iter()
                .flat_map(|o| graphs.iter().map(move |g| (*o, g)))
            {
                let context = format!("case {case} {objective:?} {graph}");
                let routes = Arc::clone(&routes);
                let mapper = Mapper::new(&spec, &net, &translator, &request, objective, routes);
                let (mut stats, incumbent) = (PlanStats::default(), Incumbent::new());
                let mut state = State::new(&mapper, graph, &mut stats, &incumbent)
                    .expect("every component has a candidate");
                let roams = |set: &CandidateSet| set.nodes.len() > 1;
                let on_island = |set: &CandidateSet| set.nodes.contains(&island);
                assert!(state.sets.iter().all(|set| !roams(set) || on_island(set)));

                let mappings = feasible_mappings(&mapper, graph, &state.sets);
                let values = || mappings.iter().map(|(_, value)| *value);
                let (best, worst) = (
                    values().fold(f64::INFINITY, f64::min),
                    values().fold(0.0, f64::max),
                );
                for threshold in [f64::INFINITY, worst, best] {
                    exact += assert_no_overshoot(&mut state, &mappings, threshold, &context);
                }
                let relay = graph.nodes.iter().position(|n| n.component == "Relay0");
                for (hosts, _) in &mappings {
                    paths += 1;
                    penalised += usize::from(hosts.contains(&avoided));
                    mismatched += usize::from(relay.map(|idx| hosts[idx]) == Some(live));
                }
            }
        }
        assert!(
            paths > 2_000 && exact > 50 && penalised > 200 && mismatched > 100,
            "the generator went vacuous: {paths} feasible mappings, {exact} paths starting on \
             an exact bound, {penalised} over the avoided host, {mismatched} over the \
             mismatched live relay"
        );
    }
}
