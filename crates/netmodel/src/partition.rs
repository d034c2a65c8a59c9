//! Connected-components view over the live network — partition
//! detection for the healer.
//!
//! A network split is more than a pile of unreachable routes: the
//! healer needs to know *which* nodes can still talk so it can deploy a
//! degraded chain per reachable component and reconcile when the
//! components merge back. [`PartitionView`] captures exactly that: the
//! connected components of the up-node / up-link subgraph, stamped with
//! the [`Network`] epoch it was computed at (the *partition epoch* that
//! degraded-mode linkages are tagged with).
//!
//! [`PartitionView::of`] computes the view with a breadth-first sweep
//! over the live adjacency, independent of any route table (~20 µs on a
//! 538-node fabric); the healer recomputes it only when the network
//! epoch moved.
//!
//! Components are ordered by their smallest member id and each
//! component's nodes are sorted ascending, so the view is deterministic
//! for a given network state.

use crate::graph::{Network, NodeId};

/// The connected components of the live (up nodes, up links) subgraph
/// at one network epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionView {
    /// Each component's member nodes, sorted ascending; components are
    /// ordered by smallest member. Down nodes belong to no component.
    components: Vec<Vec<NodeId>>,
    /// Per-node component index (`None` for down nodes).
    membership: Vec<Option<usize>>,
    /// The [`Network::epoch`] the view was computed at — the partition
    /// epoch degraded-mode deployments are tagged with.
    epoch: u64,
}

impl PartitionView {
    /// Computes the view with a breadth-first sweep over `net`'s live
    /// adjacency.
    pub fn of(net: &Network) -> Self {
        let n = net.node_count();
        let mut membership: Vec<Option<usize>> = vec![None; n];
        let mut components: Vec<Vec<NodeId>> = Vec::new();
        for start in 0..n as u32 {
            let start = NodeId(start);
            if membership[start.0 as usize].is_some() || !net.node(start).up {
                continue;
            }
            let index = components.len();
            let mut members = vec![start];
            membership[start.0 as usize] = Some(index);
            let mut queue = vec![start];
            while let Some(at) = queue.pop() {
                for &(next, link) in net.neighbours(at) {
                    if !net.link(link).up
                        || !net.node(next).up
                        || membership[next.0 as usize].is_some()
                    {
                        continue;
                    }
                    membership[next.0 as usize] = Some(index);
                    members.push(next);
                    queue.push(next);
                }
            }
            members.sort();
            components.push(members);
        }
        PartitionView {
            components,
            membership,
            epoch: net.epoch(),
        }
    }

    /// The partition epoch (the network epoch the view was computed at).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The components, each sorted ascending, ordered by smallest member.
    pub fn components(&self) -> &[Vec<NodeId>] {
        &self.components
    }

    /// Number of live components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// True when the live nodes no longer form a single component.
    pub fn is_partitioned(&self) -> bool {
        self.components.len() > 1
    }

    /// The component index `node` belongs to, or `None` when it is down.
    pub fn component_of(&self, node: NodeId) -> Option<usize> {
        self.membership.get(node.0 as usize).copied().flatten()
    }

    /// The member nodes of component `index`.
    pub fn component_nodes(&self, index: usize) -> &[NodeId] {
        &self.components[index]
    }

    /// True when both nodes are up and mutually reachable.
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        match (self.component_of(a), self.component_of(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// Index of the largest component (ties break toward the smallest
    /// member id — the earlier component). `None` when no node is up.
    pub fn majority(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (index, members) in self.components.iter().enumerate() {
            if best.is_none_or(|b| members.len() > self.components[b].len()) {
                best = Some(index);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::default_case_study;
    use crate::graph::LinkId;
    use crate::route_table::RouteTable;

    #[test]
    fn whole_case_study_is_one_component() {
        let cs = default_case_study();
        let view = PartitionView::of(&cs.network);
        assert_eq!(view.component_count(), 1);
        assert!(!view.is_partitioned());
        assert_eq!(view.component_nodes(0).len(), cs.network.node_count());
        assert_eq!(view.epoch(), cs.network.epoch());
    }

    #[test]
    fn severing_both_wan_legs_isolates_the_site() {
        let cs = default_case_study();
        let mut net = cs.network.clone();
        // Seattle's two WAN legs: NY–SEA and SEA–SD.
        let legs: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| {
                let pair = [l.a, l.b];
                pair.contains(&cs.seattle_gateway)
                    && (pair.contains(&cs.ny_gateway) || pair.contains(&cs.sd_gateway))
            })
            .map(|l| l.id)
            .collect();
        assert_eq!(legs.len(), 2);
        for leg in &legs {
            net.set_link_up(*leg, false);
        }
        let view = PartitionView::of(&net);
        assert!(view.is_partitioned());
        assert_eq!(view.component_count(), 2);
        assert!(!view.same_component(cs.seattle_client, cs.ny_gateway));
        assert!(view.same_component(cs.seattle_client, cs.seattle_gateway));
        assert!(view.same_component(cs.sd_client, cs.mail_server));
        // Majority side is NY + SD (6 of 9 nodes).
        let majority = view.majority().unwrap();
        assert_eq!(view.component_nodes(majority).len(), 6);
        assert_ne!(view.component_of(cs.seattle_client), Some(majority));
    }

    #[test]
    fn down_nodes_belong_to_no_component() {
        let cs = default_case_study();
        let mut net = cs.network.clone();
        net.set_node_up(cs.seattle_gateway, false);
        let view = PartitionView::of(&net);
        assert_eq!(view.component_of(cs.seattle_gateway), None);
        // The Seattle LAN hosts are cut off from the WAN by their
        // gateway's death.
        assert!(!view.same_component(cs.seattle_client, cs.ny_gateway));
    }

    /// The components and per-node membership a freshly built all-pairs
    /// table's reachability rows describe: the independent reference
    /// [`PartitionView::of`] is checked against.
    fn by_reachability(net: &Network) -> (Vec<Vec<NodeId>>, Vec<Option<usize>>) {
        let table = RouteTable::build(net);
        let up: Vec<NodeId> = (0..net.node_count() as u32)
            .map(NodeId)
            .filter(|&n| net.node(n).up)
            .collect();
        let mut components: Vec<Vec<NodeId>> = Vec::new();
        let mut membership = vec![None; net.node_count()];
        for &node in &up {
            let home = components
                .iter()
                .position(|members| table.reachable(members[0], node));
            let index = home.unwrap_or_else(|| {
                components.push(Vec::new());
                components.len() - 1
            });
            components[index].push(node);
            membership[node.0 as usize] = Some(index);
        }
        (components, membership)
    }

    fn assert_matches_route_table(net: &Network, context: &str) -> PartitionView {
        let view = PartitionView::of(net);
        let (components, membership) = by_reachability(net);
        assert_eq!(view.components(), components, "{context}: components");
        for (node, expected) in membership.iter().enumerate() {
            let got = view.component_of(NodeId(node as u32));
            assert_eq!(got, *expected, "{context}: membership of n{node}");
        }
        assert_eq!(view.epoch(), net.epoch(), "{context}: epoch stamp");
        view
    }

    #[test]
    fn bfs_and_route_table_views_agree() {
        let cs = default_case_study();
        let mut net = cs.network.clone();
        // Progressive damage: sever one WAN leg, then the other, then a
        // whole site's gateway; after each step the BFS view must equal
        // the components a from-scratch route table reaches.
        let legs: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| {
                let pair = [l.a, l.b];
                pair.contains(&cs.seattle_gateway)
                    && (pair.contains(&cs.ny_gateway) || pair.contains(&cs.sd_gateway))
            })
            .map(|l| l.id)
            .collect();
        for leg in &legs {
            net.set_link_up(*leg, false);
            assert_matches_route_table(&net, "severed leg");
        }
        net.set_node_up(cs.sd_gateway, false);
        let view = assert_matches_route_table(&net, "gateway down");
        assert_eq!(view.component_count(), 3, "NY | SD hosts | SEA");
    }

    /// Deterministic LCG (splitmix-style constants) so the random-graph
    /// sweep below needs no RNG dependency and replays identically.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Property check on random topologies: after arbitrary damage, the
    /// BFS view equals what a freshly built route table reaches —
    /// components, membership, and epoch stamp alike.
    #[test]
    fn bfs_fallback_matches_route_table_on_random_graphs() {
        use crate::graph::Credentials;
        use ps_sim::SimDuration;

        for seed in 0..12u64 {
            let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
            let n = 6 + (lcg(&mut s) % 20) as usize;
            let mut net = Network::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| net.add_node(format!("n{i}"), "s", 1.0, Credentials::new()))
                .collect();
            // Sparse random edges (P ≈ 1/4 per pair) so damage below
            // produces genuine multi-component splits.
            let mut links = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if lcg(&mut s).is_multiple_of(4) {
                        let lat = SimDuration::from_millis(1 + lcg(&mut s) % 10);
                        links.push(net.add_link(ids[i], ids[j], lat, 1e8, Credentials::new()));
                    }
                }
            }

            // Random damage: ~1/4 of links, ~1/5 of nodes.
            for &l in &links {
                if lcg(&mut s).is_multiple_of(4) {
                    net.set_link_up(l, false);
                }
            }
            for &node in &ids {
                if lcg(&mut s).is_multiple_of(5) {
                    net.set_node_up(node, false);
                }
            }
            assert_matches_route_table(&net, &format!("seed {seed}"));
        }
    }
}
