//! Region decomposition of the network for hierarchical planning.
//!
//! Every [`Node`](crate::graph::Node) carries a `site` label — the BRITE
//! generator stamps one AS id per node (`as0`, `as1`, …) and the
//! case-study scenarios use administrative sites (`ny`, `sf`, `cham`).
//! A [`RegionMap`] groups nodes by that label and identifies each
//! region's *border gateways*: members with at least one link whose
//! other endpoint lies in a different region. The hierarchical planner
//! solves chain segments inside regions and composes them across the
//! gateway skeleton; region-scoped caches are invalidated by
//! [`Network::region_epoch`] counters rather than the global epoch.
//!
//! Membership and gateway status depend only on the *structure* of the
//! graph (which nodes and links exist), not on up/down flags or
//! credentials — a region does not change shape when one of its hosts
//! crashes, so a `RegionMap` stays valid across fault/heal cycles and
//! only needs rebuilding when nodes or links are added.

use crate::graph::{Network, NodeId};
use std::collections::BTreeMap;

/// One region: the nodes sharing a site label, plus its border gateways.
#[derive(Debug, Clone)]
pub struct Region {
    /// The site label (BRITE AS id or case-study site name).
    pub name: String,
    /// Member nodes, ascending by id.
    pub nodes: Vec<NodeId>,
    /// Members with a link to another region, ascending by id.
    pub gateways: Vec<NodeId>,
}

/// The network's region decomposition, derived from node `site` labels.
#[derive(Debug, Clone)]
pub struct RegionMap {
    regions: Vec<Region>,
    /// Region index per node, indexed by `NodeId.0`.
    region_of: Vec<u32>,
    node_count: usize,
    link_count: usize,
}

impl RegionMap {
    /// Builds the decomposition. Regions are ordered by site name
    /// (lexicographic), so the result is deterministic for a given
    /// topology regardless of node insertion order.
    pub fn build(net: &Network) -> Self {
        let mut by_site: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for node in net.nodes() {
            by_site.entry(node.site.as_str()).or_default().push(node.id);
        }
        let mut regions = Vec::with_capacity(by_site.len());
        let mut region_of = vec![0u32; net.node_count()];
        for (idx, (site, nodes)) in by_site.into_iter().enumerate() {
            for &id in &nodes {
                region_of[id.0 as usize] = idx as u32;
            }
            regions.push(Region {
                name: site.to_string(),
                nodes,
                gateways: Vec::new(),
            });
        }
        for link in net.links() {
            let (ra, rb) = (region_of[link.a.0 as usize], region_of[link.b.0 as usize]);
            if ra != rb {
                regions[ra as usize].gateways.push(link.a);
                regions[rb as usize].gateways.push(link.b);
            }
        }
        for region in &mut regions {
            region.gateways.sort_unstable();
            region.gateways.dedup();
        }
        RegionMap {
            regions,
            region_of,
            node_count: net.node_count(),
            link_count: net.link_count(),
        }
    }

    /// Whether the decomposition still matches the network's structure.
    /// Membership and gateways depend only on which nodes and links
    /// exist (both are append-only), so node/link counts suffice.
    pub fn is_current(&self, net: &Network) -> bool {
        self.node_count == net.node_count() && self.link_count == net.link_count()
    }

    /// All regions, ordered by site name.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region a node belongs to, as an index into [`Self::regions`].
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of[node.0 as usize] as usize
    }

    /// Region by index.
    pub fn region(&self, idx: usize) -> &Region {
        &self.regions[idx]
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the map has no regions (empty network).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Credentials;
    use ps_sim::SimDuration;

    /// Two sites: s1 = {a, b}, s2 = {c, d}; b—c is the only border link.
    fn two_sites() -> Network {
        let mut net = Network::new();
        let a = net.add_node("a", "s1", 1.0, Credentials::new());
        let b = net.add_node("b", "s1", 1.0, Credentials::new());
        let c = net.add_node("c", "s2", 1.0, Credentials::new());
        let d = net.add_node("d", "s2", 1.0, Credentials::new());
        let secure = Credentials::new().with("Secure", true);
        net.add_link(a, b, SimDuration::from_millis(1), 1e8, secure.clone());
        net.add_link(c, d, SimDuration::from_millis(1), 1e8, secure);
        net.add_link(b, c, SimDuration::from_millis(50), 1e7, Credentials::new());
        net
    }

    #[test]
    fn groups_by_site_and_finds_gateways() {
        let net = two_sites();
        let map = RegionMap::build(&net);
        assert_eq!(map.len(), 2);
        assert_eq!(map.region(0).name, "s1");
        assert_eq!(map.region(0).nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(map.region(0).gateways, vec![NodeId(1)]);
        assert_eq!(map.region(1).name, "s2");
        assert_eq!(map.region(1).gateways, vec![NodeId(2)]);
        assert_eq!(map.region_of(NodeId(0)), 0);
        assert_eq!(map.region_of(NodeId(3)), 1);
    }

    #[test]
    fn staleness_tracks_structure_not_state() {
        let mut net = two_sites();
        let map = RegionMap::build(&net);
        // Up/down flips do not change region shape.
        net.set_node_up(NodeId(1), false);
        assert!(map.is_current(&net));
        // A new link (or node) does.
        net.set_node_up(NodeId(1), true);
        net.add_link(
            NodeId(0),
            NodeId(3),
            SimDuration::from_millis(60),
            1e7,
            Credentials::new(),
        );
        assert!(!map.is_current(&net));
        let rebuilt = RegionMap::build(&net);
        assert_eq!(rebuilt.region(0).gateways, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn brite_fabric_regions_match_as_structure() {
        use crate::brite::{hierarchical, FlatParams, HierParams};
        let mut rng = ps_sim::Rng::seed_from_u64(42).derive("regions");
        let params = HierParams {
            as_count: 4,
            router: FlatParams {
                nodes: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let net = hierarchical(&mut rng, &params);
        let map = RegionMap::build(&net);
        assert_eq!(map.len(), 4);
        for region in map.regions() {
            assert!(!region.gateways.is_empty(), "every AS has a border");
            for &g in &region.gateways {
                assert_eq!(net.node(g).site, region.name);
            }
        }
        let total: usize = map.regions().iter().map(|r| r.nodes.len()).sum();
        assert_eq!(total, net.node_count());
    }
}
