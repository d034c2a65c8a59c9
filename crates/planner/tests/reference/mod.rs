//! The reference the planner's search core is held to: the paper's
//! "exhaustively searches" taken literally. Bottom-up descent over the
//! full candidate product, [`Mapper::flow_at`] pruning, [`Mapper::evaluate`]
//! at the leaves — no bounds, no memoised verdicts, no incumbent, routes
//! from a fresh table of its own; first strictly better mapping wins, in
//! graph then candidate order. Shares nothing with `ps_planner::exhaustive` but the [`Mapper`],
//! and lives with the tests (`#[path]`-included), unreachable from
//! `PlannerConfig`.

use ps_net::{Network, NodeId, PropertyTranslator, ScopedRoutes};
use ps_planner::{
    enumerate_linkages_multi, Evaluation, LinkageGraph, LinkageLimits, Mapper, Objective, Plan,
    ServiceRequest,
};
use ps_spec::{ResolvedBindings, ServiceSpec};
use std::rc::Rc;
use std::sync::Arc;

/// The reference optimum: the graph, each tree node's host, and the
/// evaluation of that mapping.
pub type Optimum = (LinkageGraph, Vec<NodeId>, Evaluation);

struct Descent<'a> {
    mapper: &'a Mapper<'a>,
    graph: &'a LinkageGraph,
    order: Vec<usize>,
    assignment: Vec<Option<NodeId>>,
    provided: Vec<Option<Rc<ResolvedBindings>>>,
    best: Option<(Vec<NodeId>, Evaluation)>,
}

impl Descent<'_> {
    fn descend(&mut self, pos: usize) {
        let Some(&idx) = self.order.get(pos) else {
            let assignment: Vec<NodeId> = self.assignment.iter().map(|n| n.unwrap()).collect();
            if let Some(eval) = self.mapper.evaluate(self.graph, &assignment) {
                if self
                    .best
                    .as_ref()
                    .is_none_or(|(_, b)| eval.objective_value < b.objective_value)
                {
                    self.best = Some((assignment, eval));
                }
            }
            return;
        };
        for &node in self.mapper.candidates(self.graph, idx).iter() {
            let flowed =
                self.mapper
                    .flow_at(self.graph, idx, node, &self.assignment, &self.provided);
            if let Some(flowed) = flowed {
                self.assignment[idx] = Some(node);
                self.provided[idx] = Some(Rc::new(flowed));
                self.descend(pos + 1);
                self.assignment[idx] = None;
                self.provided[idx] = None;
            }
        }
    }
}

/// The reference optimum of one graph: every host per tree node and the
/// mapping's evaluation, `None` when no mapping of it is feasible.
pub fn search_graph(
    mapper: &Mapper<'_>,
    graph: &LinkageGraph,
) -> Option<(Vec<NodeId>, Evaluation)> {
    let mut descent = Descent {
        mapper,
        graph,
        order: graph.bottom_up_order(),
        assignment: vec![None; graph.len()],
        provided: vec![None; graph.len()],
        best: None,
    };
    descent.descend(0);
    descent.best
}

/// Plans `request` by exhaustive descent; `None` when nothing is feasible.
pub fn plan<T: PropertyTranslator + ?Sized>(
    spec: &ServiceSpec,
    net: &Network,
    translator: &T,
    request: &ServiceRequest,
    limits: &LinkageLimits,
    objective: Objective,
) -> Option<Optimum> {
    let routes = Arc::new(ScopedRoutes::new(net));
    let mapper = Mapper::new(spec, net, translator, request, objective, routes);
    let mut best: Option<Optimum> = None;
    for graph in enumerate_linkages_multi(spec, &request.interfaces, limits) {
        if let Some((assignment, eval)) = search_graph(&mapper, &graph) {
            if best
                .as_ref()
                .is_none_or(|(_, _, b)| eval.objective_value < b.objective_value)
            {
                best = Some((graph, assignment, eval));
            }
        }
    }
    best
}

/// Asserts the core's answer *is* the reference's: feasibility, the
/// objective value bit for bit, the graph, and every node's host,
/// provided properties, factors and preexisting flag.
pub fn assert_agree(core: Option<&Plan>, reference: Option<&Optimum>, context: &str) {
    let (plan, (graph, assignment, eval)) = match (core, reference) {
        (Some(plan), Some(reference)) => (plan, reference),
        (None, None) => return,
        (core, _) => panic!(
            "{context}: feasibility disagreement: {}",
            if core.is_some() {
                "core planned, reference failed"
            } else {
                "reference planned, core failed"
            }
        ),
    };
    assert_eq!(plan.objective_value, eval.objective_value, "{context}");
    assert_eq!(&plan.graph, graph, "{context}");
    for (idx, placement) in plan.placements.iter().enumerate() {
        assert_eq!(
            (
                placement.node,
                &placement.provided,
                &placement.factors,
                placement.preexisting
            ),
            (
                assignment[idx],
                &eval.provided[idx],
                &eval.factors[idx],
                eval.preexisting[idx]
            ),
            "{context}: tree node {idx} ({})",
            placement.component
        );
    }
}
