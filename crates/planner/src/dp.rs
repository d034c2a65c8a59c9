//! Dynamic-programming planner for chain linkage graphs.
//!
//! The paper notes that for the (common) case where all component graphs
//! are chains, an efficient dynamic-programming algorithm exists (their
//! CANS system, reference 13 of the paper). It is a *multi-label* DP:
//! the table entry for (chain position, network node) holds a set of
//! labels, each pairing an effective provided-property map with the best
//! suffix cost achieving it. Labels are needed because feasibility of an
//! upstream edge depends on the property map flowing down, not only on
//! the node — a label-free DP would wrongly merge a high-trust and a
//! low-trust suffix.
//!
//! The DP enforces capacities per component/edge
//! ([`crate::load::LoadModel::PerComponent`]); accumulated node/link load
//! needs whole-mapping knowledge, which is precisely what the DP's
//! optimal substructure trades away. Additive objectives (latency, cost,
//! weighted) are supported; `MaxCapacity` is not additive and falls back
//! to other planners.

use crate::linkage::LinkageGraph;
use crate::mapping::{Evaluation, Mapper, STARTUP_COST_MS};
use crate::plan::{Objective, PlanStats};
use ps_net::NodeId;
use ps_spec::ResolvedBindings;
use std::rc::Rc;

/// A DP label: a distinct effective property map with its best suffix
/// cost and the back-pointer to reconstruct the assignment.
#[derive(Debug, Clone)]
struct Label {
    provided: ResolvedBindings,
    suffix_cost: f64,
    next: Option<(NodeId, usize)>,
}

/// Whether the DP can handle this graph/objective combination.
pub fn applicable(graph: &LinkageGraph, objective: Objective) -> bool {
    graph.is_chain() && !matches!(objective, Objective::MaxCapacity)
}

/// Per-node additive cost contribution of chain stage `i` placed on
/// `node` (CPU latency and/or deployment cost, per the objective).
fn node_cost(mapper: &Mapper<'_>, component: &str, frac: f64, node: NodeId) -> f64 {
    let behavior = mapper.spec.behavior_of(component);
    let speed = mapper.net.node(node).cpu_speed;
    let latency = frac * behavior.cpu_per_request_ms / speed;
    // Factors are node-determined, so preexistence is checkable here by
    // resolving them for this node.
    let factors = mapper
        .spec
        .get_component(component)
        .and_then(|decl| decl.configure(mapper.node_env(node)).ok())
        .map(|c| c.factors)
        .unwrap_or_default();
    let cost = if mapper.request.is_preexisting(component, node, &factors) {
        0.0
    } else {
        mapper.transfer_ms(mapper.request.effective_origin(), node, behavior.code_size)
            + STARTUP_COST_MS
    };
    combine(mapper.objective, latency, cost) + mapper.avoidance_penalty(node)
}

/// Additive cost of the edge from stage `i` on `from` to stage `i+1` on
/// `to`, or `None` when the edge is infeasible on capacity grounds.
fn edge_cost(
    mapper: &Mapper<'_>,
    child_component: &str,
    child_frac: f64,
    child_rate: f64,
    from: NodeId,
    to: NodeId,
) -> Option<f64> {
    let route = mapper.route_metrics(from, to)?;
    let behavior = mapper.spec.behavior_of(child_component);
    let bytes = (behavior.bytes_per_request + behavior.bytes_per_response) as f64;
    if child_rate * bytes * 8.0 > route.bottleneck_bps {
        return None;
    }
    Some(combine(
        mapper.objective,
        child_frac * route.rtt_ms(bytes),
        0.0,
    ))
}

fn combine(objective: Objective, latency: f64, cost: f64) -> f64 {
    match objective {
        Objective::MinLatency => latency + 1e-9 * cost,
        Objective::MinCost => cost,
        Objective::MaxCapacity => 0.0,
        Objective::Weighted {
            latency_weight,
            cost_weight,
        } => latency_weight * latency + cost_weight * cost,
    }
}

/// Runs the chain DP; returns the best assignment and its evaluation.
pub fn search(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
    stats: &mut PlanStats,
) -> Option<(Vec<NodeId>, Evaluation)> {
    if !applicable(graph, mapper.objective) {
        return None;
    }
    // Chain order: tree indices from root to leaf.
    let mut chain = Vec::with_capacity(graph.len());
    let mut idx = 0usize;
    loop {
        chain.push(idx);
        match graph.nodes[idx].children.first() {
            Some(&(_, c)) => idx = c,
            None => break,
        }
    }
    let k = chain.len();
    let rates = mapper.rates(graph);
    let candidates: Vec<Rc<[NodeId]>> =
        chain.iter().map(|&i| mapper.candidates(graph, i)).collect();
    if candidates.iter().any(|c| c.is_empty()) {
        return None;
    }

    // labels[stage][candidate index] -> Vec<Label>, stages leaf-first.
    let mut labels: Vec<Vec<Vec<Label>>> = vec![Vec::new(); k];

    for stage in (0..k).rev() {
        let tree_idx = chain[stage];
        let component = graph.nodes[tree_idx].component.as_str();
        let frac = rates.fraction(tree_idx);
        // Per-component capacity check (same as Mapper::evaluate's).
        let behavior = mapper.spec.behavior_of(component);
        if behavior
            .capacity
            .is_some_and(|cap| rates.node_rate[tree_idx] > cap)
        {
            return None;
        }
        let mut per_candidate = Vec::with_capacity(candidates[stage].len());
        for &node in candidates[stage].iter() {
            let cpu_load = rates.node_rate[tree_idx] * behavior.cpu_per_request_ms / 1000.0;
            if cpu_load > mapper.net.node(node).cpu_speed {
                per_candidate.push(Vec::new());
                continue;
            }
            let own = node_cost(mapper, component, frac, node);
            let mut here: Vec<Label> = Vec::new();
            if stage == k - 1 {
                // Leaf: provided = explicit bindings only.
                let assignment = vec![None; graph.len()];
                let provided = vec![None; graph.len()];
                stats.flow_evals += 1;
                if let Some(flow) = mapper.flow_at(graph, tree_idx, node, &assignment, &provided) {
                    here.push(Label {
                        provided: flow,
                        suffix_cost: own,
                        next: None,
                    });
                }
            } else {
                let child_tree = chain[stage + 1];
                let child_component = graph.nodes[child_tree].component.as_str();
                let child_frac = rates.fraction(child_tree);
                let child_rate = rates.edge_rate[child_tree];
                for (m_idx, &m) in candidates[stage + 1].iter().enumerate() {
                    // Adjacent same-component stages must be distinct
                    // instances (see the mapper's instance-identity
                    // rules); skip self-linked transitions outright.
                    if component == child_component && node == m {
                        continue;
                    }
                    let Some(e_cost) =
                        edge_cost(mapper, child_component, child_frac, child_rate, node, m)
                    else {
                        stats.prunes += 1;
                        continue;
                    };
                    for (l_idx, label) in labels[stage + 1][m_idx].iter().enumerate() {
                        // Feasibility + flow through this (node, m, label).
                        let mut assignment = vec![None; graph.len()];
                        let mut provided = vec![None; graph.len()];
                        assignment[child_tree] = Some(m);
                        provided[child_tree] = Some(Rc::new(label.provided.clone()));
                        stats.flow_evals += 1;
                        let Some(flow) =
                            mapper.flow_at(graph, tree_idx, node, &assignment, &provided)
                        else {
                            stats.prunes += 1;
                            continue;
                        };
                        let total = own + e_cost + label.suffix_cost;
                        insert_label(
                            &mut here,
                            Label {
                                provided: flow,
                                suffix_cost: total,
                                next: Some((m, l_idx)),
                            },
                        );
                    }
                }
            }
            per_candidate.push(here);
        }
        labels[stage] = per_candidate;
    }

    // Best root label, including the implicit client -> root edge.
    let root_component = graph.nodes[chain[0]].component.as_str();
    let mut best: Option<(usize, usize, f64)> = None; // (cand idx, label idx, cost)
    for (c_idx, cand_labels) in labels[0].iter().enumerate() {
        let client_edge = edge_cost(
            mapper,
            root_component,
            1.0,
            rates.node_rate[chain[0]],
            mapper.request.client_node,
            candidates[0][c_idx],
        );
        let Some(client_edge) = client_edge else {
            continue;
        };
        for (l_idx, label) in cand_labels.iter().enumerate() {
            let total = label.suffix_cost + client_edge;
            if best.is_none_or(|(_, _, c)| total < c) {
                best = Some((c_idx, l_idx, total));
            }
        }
    }
    let (mut c_idx, mut l_idx, _) = best?;

    // Reconstruct the assignment root-to-leaf.
    let mut assignment = vec![NodeId(0); graph.len()];
    for stage in 0..k {
        let node = candidates[stage][c_idx];
        assignment[chain[stage]] = node;
        match labels[stage][c_idx][l_idx].next {
            Some((m, next_label)) => {
                // Back-pointers always target a candidate of the next
                // stage; `?` degrades a violated invariant to "no plan"
                // instead of panicking on the hot path (ps-lint P001).
                c_idx = candidates[stage + 1].iter().position(|&cand| cand == m)?;
                l_idx = next_label;
            }
            None => break,
        }
    }

    stats.mappings_evaluated += 1;
    let eval = mapper.evaluate(graph, &assignment)?;
    Some((assignment, eval))
}

/// Inserts a label keeping the set minimal: among labels with identical
/// property maps only the cheapest survives.
fn insert_label(set: &mut Vec<Label>, label: Label) {
    for existing in set.iter_mut() {
        if existing.provided == label.provided {
            if label.suffix_cost < existing.suffix_cost {
                *existing = label;
            }
            return;
        }
    }
    set.push(label);
}
