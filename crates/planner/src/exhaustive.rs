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
//! * a *corridor floor* tightens that suffix where its per-edge minima
//!   collapse to ~0: placing any non-root tree node at host `m` leaves
//!   the whole ancestor edge chain back to the client uncharged
//!   (bottom-up order), and by the triangle inequality that chain costs
//!   at least the minimum path fraction times the client → `m` round
//!   trip — so candidates far from the client ↔ pinned-server corridor
//!   are cut before any property-flow work;
//! * before any of that arithmetic a candidate is dropped when the plan
//!   memo's instance-identity table shows it clashing with an
//!   already-placed same-component tree node, and a graph that repeats
//!   a component more often than its candidates' factor classes admit
//!   is never descended at all — both exact: every completion would be
//!   rejected by the evaluator's identity rules;
//! * pruning is *strict* (`partial + suffix > incumbent objective`):
//!   a subtree is cut only when every completion is strictly worse than
//!   the incumbent, so the surviving optimum — value *and* chosen
//!   assignment — is identical to an unbounded descent's. For
//!   `MaxCapacity` (non-additive, negated) bounding is disabled.
//!
//! This is the planner's only search. The unbounded, memo-free descent
//! it must agree with — value *and* placements — lives with the tests
//! (`crates/planner/tests/reference/mod.rs`), unreachable from
//! [`PlannerConfig`](crate::PlannerConfig).
//!
//! Feasibility and objective of complete assignments are computed by
//! the [`Mapper`]'s evaluator.

use crate::linkage::LinkageGraph;
use crate::mapping::{Evaluation, Mapper, STARTUP_COST_MS};
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
    let n = graph.len();
    let order = graph.bottom_up_order();
    let sets: Vec<CandidateSet> = (0..n).map(|i| mapper.candidate_set(graph, i)).collect();
    // Per tree node, its candidate hosts and the matching row of the
    // set's instance-identity table.
    let candidates: Vec<&[NodeId]> = sets.iter().map(|set| &set.nodes[..]).collect();
    let identity: Vec<&[Identity]> = sets.iter().map(|set| &set.identity[..]).collect();
    if candidates.iter().any(|c| c.is_empty()) {
        return None;
    }

    // `MaxCapacity` negates the sustainable rate: the objective is not an
    // additive sum of placement increments, so the bound is inadmissible
    // there and bounding is disabled.
    let bounding = !matches!(mapper.objective, Objective::MaxCapacity);
    let rates = mapper.rates(graph);
    let lp = latency_part(mapper.objective);
    let cp = cost_part(mapper.objective);

    // Per tree node and candidate, the weighted lower bound of the
    // deployment cost the evaluator charges: zero when the placement
    // might attach to a pinned/existing instance (`attachable`; whether
    // the factors match too is the evaluator's question), else exactly
    // its term — code transfer from the effective origin plus startup.
    let origin = mapper.request.effective_origin();
    let deploy_lb: Vec<Vec<f64>> = (0..n)
        .map(|idx| {
            let size = mapper
                .spec
                .behavior_of(&graph.nodes[idx].component)
                .code_size;
            let hosts = candidates[idx].iter().zip(identity[idx]);
            hosts
                .map(|(&node, id)| match bounding && cp > 0.0 && !id.attachable {
                    true => cp * (mapper.transfer_ms(origin, node, size) + STARTUP_COST_MS),
                    false => 0.0,
                })
                .collect()
        })
        .collect();

    // Admissible per-tree-node lower bounds over each candidate set,
    // mirroring the increments charged during recursion.
    let suffix_bound = if bounding && (lp > 0.0 || cp > 0.0) {
        let lower_bound: Vec<f64> = (0..n)
            .map(|idx| min_increment(mapper, graph, &rates, &candidates, &deploy_lb[idx], idx, lp))
            .collect();
        let mut suffix = vec![0.0; order.len() + 1];
        for pos in (0..order.len()).rev() {
            suffix[pos] = suffix[pos + 1] + lower_bound[order[pos]];
        }
        suffix
    } else {
        vec![0.0; order.len() + 1]
    };

    // Corridor-floor coefficients: placing tree node `idx` at host `m`
    // commits every completion to still pay the — bottom-up order, so
    // entirely uncharged — ancestor edge chain client → root → … → idx.
    // That directed walk ends at `m`, so by the triangle inequality of
    // shortest-path latencies its one-way latency sum is at least
    // `d(client, m)`, each edge weighted by at least the minimum flow
    // fraction along the path (the client edge carries fraction 1) and
    // doubled by the evaluator's round-trip charge. `anc_floor[idx] *
    // d(client, m)` is therefore an admissible remaining-cost floor that
    // stays non-zero deep in the fabric, where the per-edge candidate
    // minima underlying `suffix_bound` collapse to ~0 — it is what cuts
    // roaming candidates far from the client ↔ pinned-server corridor
    // before any property-flow work. Zero for the root (its client edge
    // is charged in its own increment).
    let anc_floor: Vec<f64> = if bounding && lp > 0.0 {
        let mut parent = vec![usize::MAX; n];
        for i in 0..n {
            for &(_, child) in &graph.nodes[i].children {
                parent[child] = i;
            }
        }
        (0..n)
            .map(|idx| {
                if idx == 0 {
                    return 0.0;
                }
                let mut fmin = 1.0f64;
                let mut v = idx;
                while v != 0 {
                    if v == usize::MAX {
                        // Disconnected from the root: no ancestor chain
                        // to charge for.
                        return 0.0;
                    }
                    fmin = fmin.min(rates.fraction(v));
                    v = parent[v];
                }
                lp * 2.0 * fmin
            })
            .collect()
    } else {
        vec![0.0; n]
    };

    // Node-only objective terms, resolved per candidate once so the
    // descent's hot loop reads two array slots instead of re-running
    // route-cache lookups at every visit: `static_cost` carries the
    // deployment-cost part, the CPU share, and (for the root) the
    // client edge — summed in exactly the order [`State::increment`]
    // historically charged them, keeping the accumulated partial
    // bit-identical — and `cand_floor` carries the corridor floor,
    // `anc_floor[idx] * d(client, candidate)`.
    let (static_cost, cand_floor) = if bounding && (lp > 0.0 || cp > 0.0) {
        let client = mapper.request.client_node;
        let mut static_cost = Vec::with_capacity(n);
        let mut cand_floor = Vec::with_capacity(n);
        for idx in 0..n {
            let behavior = mapper.spec.behavior_of(&graph.nodes[idx].component);
            let frac = rates.fraction(idx);
            let mut costs = Vec::with_capacity(candidates[idx].len());
            let mut floors = Vec::with_capacity(candidates[idx].len());
            for (&node, &deploy) in candidates[idx].iter().zip(&deploy_lb[idx]) {
                let mut cost = deploy;
                if lp > 0.0 {
                    cost +=
                        lp * frac * behavior.cpu_per_request_ms / mapper.net.node(node).cpu_speed;
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
                costs.push(cost);
                let floor = match anc_floor[idx] {
                    coeff if coeff > 0.0 => mapper
                        .route_metrics(client, node)
                        .map_or(0.0, |route| coeff * route.latency.as_millis_f64()),
                    _ => 0.0,
                };
                floors.push(floor);
            }
            static_cost.push(costs);
            cand_floor.push(floors);
        }
        (static_cost, cand_floor)
    } else {
        // Shape-matched zeros: the descent indexes these whenever it
        // bounds, even for objectives with no latency or cost part.
        let zeros: Vec<Vec<f64>> = candidates.iter().map(|c| vec![0.0; c.len()]).collect();
        (zeros.clone(), zeros)
    };

    // Per tree node, the latency weight × fraction and request+response
    // bytes its parent edge is charged with — read by the descent for
    // edges to already-placed children.
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

    let mut state = State {
        mapper,
        graph,
        order,
        sets: &sets,
        candidates,
        rates,
        suffix_bound,
        static_cost,
        cand_floor,
        edge_w,
        edge_bytes,
        bounding,
        lp,
        same_component,
        data_view,
        identity,
        incumbent,
        context_key: Vec::new(),
        provided_id: vec![0; n],
        assignment: vec![None; n],
        placed: vec![Identity::default(); n],
        provided: vec![None; n],
        factors: vec![None; n],
        best: None,
        stats,
    };
    state.recurse(0, 0.0);
    state.best
}

fn latency_part(objective: Objective) -> f64 {
    match objective {
        Objective::MinLatency => 1.0,
        Objective::MinCost | Objective::MaxCapacity => 0.0,
        Objective::Weighted { latency_weight, .. } => latency_weight,
    }
}

/// Weight of the deployment-cost term in the objective. `1e-9` is
/// MinLatency's deterministic tie-break coefficient — it must match the
/// evaluator's ([`Mapper::evaluate`]) so the accumulated partial at a
/// complete assignment equals the full objective when no preexisting
/// factor mismatch occurs.
fn cost_part(objective: Objective) -> f64 {
    match objective {
        Objective::MinLatency => 1e-9,
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
        // The occurrences' sets differ only by forced placement; a host
        // in several of them has one identity and counts once.
        let mut hosts: Vec<(Identity, NodeId)> = Vec::new();
        for idx in std::iter::once(first).chain(repeats.clone()) {
            let set = mapper.candidate_set(graph, idx);
            hosts.extend(set.identity.iter().copied().zip(set.nodes.iter().copied()));
        }
        hosts.sort_unstable();
        hosts.dedup();
        let data_view = mapper
            .spec
            .get_component(component(first))
            .is_some_and(|c| c.is_data_view());
        let capacity: usize = hosts
            .chunk_by(|a, b| a.0.class == b.0.class)
            .map(|class| match data_view {
                true => 1,
                false => {
                    let preexisting = class.iter().filter(|(id, _)| id.preexisting).count();
                    class.len().min(1 + preexisting)
                }
            })
            .sum();
        if 1 + repeats.count() > capacity {
            return false;
        }
    }
    true
}

/// Lower bound of [`State::increment`] for tree node `idx` over its
/// whole candidate set (children range over theirs too); `deploy_lb` is
/// the node's row of weighted deployment-cost lower bounds.
fn min_increment(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
    rates: &crate::load::RatePlan,
    candidates: &[&[NodeId]],
    deploy_lb: &[f64],
    idx: usize,
    lp: f64,
) -> f64 {
    let min_rtt = |from_set: &[NodeId], to_set: &[NodeId], bytes: f64| -> f64 {
        let mut best = f64::INFINITY;
        for &a in from_set {
            for &b in to_set {
                let rtt = match mapper.route_metrics(a, b) {
                    Some(route) if !route.is_local() => route.rtt_ms(bytes),
                    Some(_) => 0.0,
                    None => continue,
                };
                best = best.min(rtt);
                if best == 0.0 {
                    return 0.0;
                }
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    };
    let behavior = mapper.spec.behavior_of(&graph.nodes[idx].component);
    let frac = rates.fraction(idx);
    // The CPU and deployment-cost terms both depend only on the chosen
    // node, so minimising their *sum* over the candidate set stays
    // admissible and is tighter than summing independent minima.
    let min_node = candidates[idx]
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
            bound +=
                lp * rates.fraction(child) * min_rtt(candidates[idx], candidates[child], bytes);
        }
        if idx == 0 {
            let bytes = (behavior.bytes_per_request + behavior.bytes_per_response) as f64;
            bound += lp * min_rtt(&[mapper.request.client_node], candidates[0], bytes);
        }
    }
    bound
}

struct State<'a, 'b> {
    mapper: &'a Mapper<'b>,
    graph: &'a LinkageGraph,
    order: Vec<usize>,
    /// Per tree node, its full candidate set and that set's id in the
    /// mapper's plan memo.
    sets: &'a [CandidateSet],
    /// Per tree node, the hosts of its set.
    candidates: Vec<&'a [NodeId]>,
    rates: crate::load::RatePlan,
    suffix_bound: Vec<f64>,
    /// Per tree node and candidate (same index as `candidates`), every
    /// node-only objective term precomputed: deployment cost, own CPU
    /// share, and (for the root) the client edge — summed in the same
    /// order the evaluator charges them, so partials stay bit-identical.
    static_cost: Vec<Vec<f64>>,
    /// Per tree node and candidate, the corridor floor: the
    /// ancestor-path coefficient × the client → candidate shortest-path
    /// latency (0 where the ancestor chain contributes nothing).
    cand_floor: Vec<Vec<f64>>,
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
    /// Per tree node and candidate (same index as `candidates`), the
    /// plan memo's instance-identity entry.
    identity: Vec<&'a [Identity]>,
    incumbent: &'a Incumbent,
    /// Scratch for a flow-context key, reused across `recurse` calls.
    context_key: Vec<u64>,
    /// Per placed tree node, the memo's id of its provided bindings —
    /// its part of its parent's flow context.
    provided_id: Vec<u32>,
    assignment: Vec<Option<NodeId>>,
    /// Per placed tree node, the identity entry of its host.
    placed: Vec<Identity>,
    provided: Vec<Option<Rc<ResolvedBindings>>>,
    factors: Vec<Option<Rc<ResolvedBindings>>>,
    best: Option<(Vec<NodeId>, Evaluation)>,
    stats: &'a mut PlanStats,
}

impl State<'_, '_> {
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
            let Some(child_node) = self.assignment[child] else {
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
            self.assignment[j].is_some_and(|other| {
                let placed = self.placed[j];
                other == node
                    || (placed.class == id.class
                        && (self.data_view[idx] || !(placed.preexisting || id.preexisting)))
            })
        })
    }

    /// Interns the flow context of tree node `idx` — its candidate set
    /// and each child's `(host, provided)` pair, the only descent state
    /// the flow reads — and returns the verdict cell of the set's first
    /// candidate; candidate `ci` reads cell `+ ci`. Bottom-up order
    /// guarantees all children are placed.
    fn flow_context(&mut self, idx: usize) -> Option<usize> {
        let set = &self.sets[idx];
        self.context_key.clear();
        self.context_key.push(u64::from(set.id));
        for &(_, child) in &self.graph.nodes[idx].children {
            let child_node = self.assignment[child]?;
            self.context_key
                .push((u64::from(child_node.0) << 32) | u64::from(self.provided_id[child]));
        }
        let mut memo = self.mapper.memo.borrow_mut();
        Some(memo.flow_context(&self.context_key, set.nodes.len()))
    }

    /// Property flow for `idx` at `node`: read from verdict cell `cell`
    /// of the plan memo, computed and recorded there on first sight. The
    /// flow is a pure function of (component, host, children's hosts and
    /// provided bindings), and the descent re-derives identical verdicts
    /// across every variation of the *deeper* — already placed,
    /// irrelevant — subtree and across the plan's other graphs, so
    /// nearly every visit is a table read.
    fn flow(&mut self, idx: usize, node: NodeId, cell: usize) -> Option<FlowOutcome> {
        match self.mapper.memo.borrow().verdict(cell) {
            Verdict::Infeasible => return None,
            Verdict::Feasible(outcome) => return Some(outcome.clone()),
            Verdict::Unknown => {}
        }
        self.stats.flow_evals += 1;
        let computed = self.mapper.flow_and_factors_at(
            self.graph,
            idx,
            node,
            &self.assignment,
            &self.provided,
        );
        self.mapper.memo.borrow_mut().record_flow(cell, computed)
    }

    /// Best objective known anywhere: this graph's own best, improved by
    /// the cross-graph incumbent. `INFINITY` disables cuts.
    fn threshold(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |(_, b)| b.objective_value)
            .min(self.incumbent.get())
    }

    fn recurse(&mut self, pos: usize, partial: f64) {
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
                &self.provided,
                &self.factors,
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
        let Some(row) = self.flow_context(idx) else {
            debug_assert!(false, "child placed before parent");
            return;
        };
        for ci in 0..self.candidates[idx].len() {
            let node = self.candidates[idx][ci];
            let id = self.identity[idx][ci];
            if self.identity_clash(idx, node, id) {
                // Every completion is infeasible: skip before paying for
                // the bound or property flow.
                self.stats.prunes += 1;
                continue;
            }
            // All zeros when bounding is off (`MaxCapacity` weighs
            // neither latency nor cost).
            let inc = self.child_edge_cost(idx, node, self.static_cost[idx][ci]);
            // The suffix bound and the corridor floor both underestimate
            // the remaining cost but overlap on the ancestor edge terms,
            // so they combine by max, not sum.
            let remaining = self.suffix_bound[pos + 1].max(self.cand_floor[idx][ci]);
            let bound = partial + inc + remaining;
            if self.bounding && bound > self.threshold() {
                // This placement already costs more than a known complete
                // mapping — skip it before paying for property flow.
                self.stats.bound_prunes += 1;
                continue;
            }
            let Some(outcome) = self.flow(idx, node, row + ci) else {
                self.stats.prunes += 1;
                continue;
            };
            self.assignment[idx] = Some(node);
            self.placed[idx] = id;
            self.provided_id[idx] = outcome.provided_id;
            self.provided[idx] = Some(outcome.provided);
            self.factors[idx] = Some(outcome.factors);
            self.recurse(pos + 1, partial + inc);
            self.assignment[idx] = None;
            self.provided[idx] = None;
            self.factors[idx] = None;
        }
    }
}
