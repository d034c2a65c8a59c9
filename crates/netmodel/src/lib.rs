//! # ps-net — the network model the planner sees
//!
//! Section 3.3 of the paper models the network as a graph of nodes and
//! links with resource characteristics (CPU capacity, bandwidth, latency)
//! and application-independent credentials; a service-supplied procedure
//! translates those credentials into the properties the service cares
//! about. This crate provides:
//!
//! * [`Network`] — the annotated graph, with [`graph::Credentials`] on
//!   nodes and links;
//! * [`shortest_route`] — policy-aware routing (insecure hops, then
//!   latency) used to map component linkages onto multi-hop paths;
//! * [`ScopedRoutes`] — the planner's and serving path's route rows,
//!   one Dijkstra tree per source built on first use and carried across
//!   the changes that provably leave it exact, and [`RouteTable`], the
//!   same rows for every source at once (the tests' and benchmark
//!   probes' all-pairs reference);
//! * [`PropertyTranslator`] / [`MappingTranslator`] — the credential →
//!   service-property translation machinery;
//! * [`brite`] — BRITE-style topology generators (Waxman,
//!   Barabási–Albert, hierarchical), standing in for the BRITE tool the
//!   paper used;
//! * [`casestudy`] — the exact Figure 5 three-site topology.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod brite;
pub mod casestudy;
pub mod graph;
pub mod partition;
pub mod path;
pub mod regions;
pub mod route_table;
pub mod translate;

pub use casestudy::{default_case_study, CaseStudy};
pub use graph::{Credentials, Link, LinkId, Network, Node, NodeId, Touch};
pub use partition::PartitionView;
pub use path::{shortest_route, Route, RouteMetrics};
pub use regions::{Region, RegionMap};
pub use route_table::{RepairOutcome, RouteTable, ScopedRoutes};
pub use translate::{Mapping, MappingTranslator, PropertyTranslator};

/// Convenience prelude for network-model users.
pub mod prelude {
    pub use crate::brite::{barabasi_albert, hierarchical, waxman, FlatParams, HierParams};
    pub use crate::casestudy::{build as build_case_study, default_case_study, CaseStudy};
    pub use crate::graph::{Credentials, Link, LinkId, Network, Node, NodeId, Touch};
    pub use crate::partition::PartitionView;
    pub use crate::path::{shortest_route, Route, RouteMetrics};
    pub use crate::regions::{Region, RegionMap};
    pub use crate::route_table::{RepairOutcome, RouteTable, ScopedRoutes};
    pub use crate::translate::{Mapping, MappingTranslator, PropertyTranslator};
}
