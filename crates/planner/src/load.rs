//! Request-rate propagation and capacity checks (planner condition 3).
//!
//! The client submits requests at some rate λ to the root component; each
//! component forwards `λ_in × RRF` requests per second along *each* of
//! its required linkages. From the resulting per-edge rates the planner
//! derives node CPU load, per-component load, and per-link bandwidth
//! demand, and rejects mappings that exceed capacities.

use crate::linkage::LinkageGraph;
use ps_spec::ServiceSpec;

/// Per-tree-node incoming request rates and per-edge rates for a linkage
/// graph under a root input rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePlan {
    /// Requests/second arriving at each tree node.
    pub node_rate: Vec<f64>,
    /// Requests/second on the edge *into* each tree node from its parent
    /// (root entry = the client rate).
    pub edge_rate: Vec<f64>,
}

/// Computes rates top-down from the root input rate.
pub fn propagate_rates(spec: &ServiceSpec, graph: &LinkageGraph, root_rate: f64) -> RatePlan {
    let n = graph.len();
    let mut node_rate = vec![0.0; n];
    let mut edge_rate = vec![0.0; n];
    node_rate[0] = root_rate;
    edge_rate[0] = root_rate;
    // Children always have larger indices than their parents is NOT
    // guaranteed by construction order alone; walk top-down explicitly.
    let mut stack = vec![0usize];
    while let Some(idx) = stack.pop() {
        let rrf = spec.behavior_of(&graph.nodes[idx].component).rrf;
        let downstream = node_rate[idx] * rrf;
        for &(_, child) in &graph.nodes[idx].children {
            node_rate[child] = downstream;
            edge_rate[child] = downstream;
            stack.push(child);
        }
    }
    RatePlan {
        node_rate,
        edge_rate,
    }
}

impl RatePlan {
    /// The fraction of client requests reaching tree node `idx`
    /// (`node_rate / root rate`); 0 when the root rate is 0.
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.node_rate[0] == 0.0 {
            0.0
        } else {
            self.node_rate[idx] / self.node_rate[0]
        }
    }

    /// Bits/second demanded on the edge into `idx`, given the parent's
    /// request size and the provider's response size.
    pub fn edge_bits_per_sec(
        &self,
        idx: usize,
        bytes_per_request: u64,
        bytes_per_response: u64,
    ) -> f64 {
        self.edge_rate[idx] * (bytes_per_request + bytes_per_response) as f64 * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkage::{enumerate_linkages, LinkageLimits};
    use ps_spec::prelude::*;

    fn chain_spec(rrf_mid: f64) -> ServiceSpec {
        ServiceSpec::new("s")
            .interface(Interface::new("A", Vec::<String>::new()))
            .interface(Interface::new("B", Vec::<String>::new()))
            .interface(Interface::new("C", Vec::<String>::new()))
            .component(
                Component::new("Client")
                    .implements(InterfaceRef::plain("A"))
                    .requires(InterfaceRef::plain("B"))
                    .behavior(Behavior::new().rrf(1.0)),
            )
            .component(
                Component::new("Cache")
                    .implements(InterfaceRef::plain("B"))
                    .requires(InterfaceRef::plain("C"))
                    .behavior(Behavior::new().rrf(rrf_mid)),
            )
            .component(Component::new("Server").implements(InterfaceRef::plain("C")))
    }

    #[test]
    fn rates_scale_by_rrf_down_the_chain() {
        let spec = chain_spec(0.2);
        let graphs = enumerate_linkages(&spec, "A", &LinkageLimits::default());
        let g = graphs
            .iter()
            .find(|g| g.to_string() == "Client -> Cache -> Server")
            .unwrap();
        let rates = propagate_rates(&spec, g, 100.0);
        assert_eq!(rates.node_rate, vec![100.0, 100.0, 20.0]);
        assert!((rates.fraction(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fanout_duplicates_rate_per_linkage() {
        let spec = ServiceSpec::new("fan")
            .interface(Interface::new("A", Vec::<String>::new()))
            .interface(Interface::new("B", Vec::<String>::new()))
            .component(
                Component::new("Root")
                    .implements(InterfaceRef::plain("A"))
                    .requires(InterfaceRef::plain("B"))
                    .requires(InterfaceRef::plain("B"))
                    .behavior(Behavior::new().rrf(0.5)),
            )
            .component(Component::new("Leaf").implements(InterfaceRef::plain("B")));
        let graphs = enumerate_linkages(&spec, "A", &LinkageLimits::default());
        let rates = propagate_rates(&spec, &graphs[0], 10.0);
        // Both linkages carry rate 5.
        assert_eq!(rates.node_rate, vec![10.0, 5.0, 5.0]);
    }

    #[test]
    fn edge_bits_account_request_and_response() {
        let spec = chain_spec(1.0);
        let graphs = enumerate_linkages(&spec, "A", &LinkageLimits::default());
        let g = &graphs[0];
        let rates = propagate_rates(&spec, g, 10.0);
        // 10 req/s x (500 + 1500) bytes x 8 bits.
        assert_eq!(rates.edge_bits_per_sec(1, 500, 1500), 160_000.0);
    }
}
