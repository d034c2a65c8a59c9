//! Branch-and-bound planner for general (tree/DAG-shaped) component
//! graphs.
//!
//! The paper's future-work direction for non-chain applications is a
//! partial-order constraint solver in the style of AI planning tools
//! (IPP). This module is that solver's search core: plan-space search
//! over placement decisions with
//!
//! * **least-commitment ordering** — children (whose property maps are
//!   prerequisites of their parents' checks) are placed first, exactly
//!   like the exhaustive oracle, but candidates are tried cheapest-first;
//! * **constraint propagation** — the same property-flow check prunes a
//!   branch as soon as any linkage constraint is violated;
//! * **admissible bounding** — for additive objectives a per-tree-node
//!   lower bound (best possible CPU + edge contribution over remaining
//!   placements) cuts branches that cannot beat the incumbent.
//!
//! Results are identical to the exhaustive planner (it explores the same
//! space, only in a better order with sound pruning); the planner
//! ablation bench quantifies the node-visit savings.

use crate::linkage::LinkageGraph;
use crate::mapping::{Evaluation, Mapper};
use crate::plan::{Objective, PlanStats};
use ps_net::NodeId;
use ps_spec::ResolvedBindings;
use std::rc::Rc;

/// Runs the branch-and-bound search; returns the best assignment and its
/// evaluation.
pub fn search(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
    stats: &mut PlanStats,
) -> Option<(Vec<NodeId>, Evaluation)> {
    let n = graph.len();
    let order = graph.bottom_up_order();
    let candidates: Vec<Rc<[NodeId]>> = (0..n).map(|i| mapper.candidates(graph, i)).collect();
    if candidates.iter().any(|c| c.is_empty()) {
        return None;
    }
    let bounding = !matches!(mapper.objective, Objective::MaxCapacity);
    let rates = mapper.rates(graph);
    let lp = latency_part(mapper.objective);

    // Admissible per-node lower bounds. A node's increment (see
    // [`State::increment`]) charges its own CPU plus the edges to its
    // children plus (for the root) the client edge; each term is bounded
    // from below over the candidate sets, using the mapper's memoized
    // route metrics.
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
    let lower_bound: Vec<f64> = (0..n)
        .map(|idx| {
            if !bounding || lp == 0.0 {
                return 0.0;
            }
            let behavior = mapper.spec.behavior_of(&graph.nodes[idx].component);
            let frac = rates.fraction(idx);
            let min_cpu = candidates[idx]
                .iter()
                .map(|&node| {
                    lp * frac * behavior.cpu_per_request_ms / mapper.net.node(node).cpu_speed
                })
                .fold(f64::INFINITY, f64::min);
            let mut bound = min_cpu;
            for &(_, child) in &graph.nodes[idx].children {
                let cb = mapper.spec.behavior_of(&graph.nodes[child].component);
                let bytes = (cb.bytes_per_request + cb.bytes_per_response) as f64;
                bound += lp
                    * rates.fraction(child)
                    * min_rtt(&candidates[idx], &candidates[child], bytes);
            }
            if idx == 0 {
                let bytes = (behavior.bytes_per_request + behavior.bytes_per_response) as f64;
                bound += lp * min_rtt(&[mapper.request.client_node], &candidates[0], bytes);
            }
            bound
        })
        .collect();
    let mut suffix_bound = vec![0.0; order.len() + 1];
    for pos in (0..order.len()).rev() {
        suffix_bound[pos] = suffix_bound[pos + 1] + lower_bound[order[pos]];
    }

    let mut state = State {
        mapper,
        graph,
        order,
        candidates,
        rates,
        suffix_bound,
        bounding,
        assignment: vec![None; n],
        provided: vec![None; n],
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

struct State<'a, 'b> {
    mapper: &'a Mapper<'b>,
    graph: &'a LinkageGraph,
    order: Vec<usize>,
    candidates: Vec<Rc<[NodeId]>>,
    rates: crate::load::RatePlan,
    suffix_bound: Vec<f64>,
    bounding: bool,
    assignment: Vec<Option<NodeId>>,
    provided: Vec<Option<Rc<ResolvedBindings>>>,
    best: Option<(Vec<NodeId>, Evaluation)>,
    stats: &'a mut PlanStats,
}

impl State<'_, '_> {
    /// Incremental (partial) cost of placing `idx` at `node`: its own CPU
    /// contribution plus the edges to its (already-placed) children. An
    /// underestimate of the full objective for MinCost/Weighted (cost
    /// terms are added only at final evaluation), which keeps the bound
    /// admissible.
    fn increment(&self, idx: usize, node: NodeId) -> f64 {
        let lp = latency_part(self.mapper.objective);
        if lp == 0.0 {
            return 0.0;
        }
        let behavior = self
            .mapper
            .spec
            .behavior_of(&self.graph.nodes[idx].component);
        let frac = self.rates.fraction(idx);
        let mut cost =
            lp * frac * behavior.cpu_per_request_ms / self.mapper.net.node(node).cpu_speed;
        if idx == 0 {
            // The implicit client -> root edge.
            if let Some(route) = self
                .mapper
                .route_metrics(self.mapper.request.client_node, node)
            {
                if !route.is_local() {
                    let bytes = (behavior.bytes_per_request + behavior.bytes_per_response) as f64;
                    cost += lp * route.rtt_ms(bytes);
                }
            }
        }
        for &(_, child) in &self.graph.nodes[idx].children {
            let Some(child_node) = self.assignment[child] else {
                continue;
            };
            if let Some(route) = self.mapper.route_metrics(node, child_node) {
                let cb = self
                    .mapper
                    .spec
                    .behavior_of(&self.graph.nodes[child].component);
                let bytes = (cb.bytes_per_request + cb.bytes_per_response) as f64;
                cost += lp * self.rates.fraction(child) * route.rtt_ms(bytes);
            }
        }
        cost
    }

    fn recurse(&mut self, pos: usize, partial: f64) {
        if self.bounding {
            if let Some((_, best)) = &self.best {
                // For MinLatency the incumbent's objective carries a tiny
                // deployment-cost tie-break the partial costs do not
                // track; prune against the pure latency floor instead, so
                // equal-latency placements collapse. (The tie-break then
                // resolves by search order — candidates are tried
                // cheapest-first — rather than exhaustively; Exhaustive
                // remains the exact oracle.)
                let threshold = match self.mapper.objective {
                    Objective::MinLatency => best.latency_ms,
                    _ => best.objective_value,
                };
                if partial + self.suffix_bound[pos] >= threshold {
                    self.stats.prunes += 1;
                    return;
                }
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
            if let Some(eval) = self.mapper.evaluate(self.graph, &assignment) {
                let better = self
                    .best
                    .as_ref()
                    .is_none_or(|(_, b)| eval.objective_value < b.objective_value);
                if better {
                    self.best = Some((assignment, eval));
                }
            }
            return;
        }
        let idx = self.order[pos];
        // Feasible candidates with their flow results, cheapest first.
        let mut options: Vec<(f64, NodeId, ResolvedBindings)> = Vec::new();
        for &node in self.candidates[idx].iter() {
            self.stats.flow_evals += 1;
            match self
                .mapper
                .flow_at(self.graph, idx, node, &self.assignment, &self.provided)
            {
                Some(flow) => options.push((self.increment(idx, node), node, flow)),
                None => self.stats.prunes += 1,
            }
        }
        options.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (inc, node, flow) in options {
            self.assignment[idx] = Some(node);
            self.provided[idx] = Some(Rc::new(flow));
            self.recurse(pos + 1, partial + inc);
            self.assignment[idx] = None;
            self.provided[idx] = None;
        }
    }
}
