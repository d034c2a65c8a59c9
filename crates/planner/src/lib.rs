//! # ps-planner — the planning module (Section 3.3)
//!
//! Given a declarative service specification, the current network state,
//! and a client request, the planner decides which components to
//! instantiate where. It performs the paper's two logical steps:
//!
//! 1. **Find all valid linkages** ([`enumerate_linkages`], Figure 3):
//!    starting from the requested interface, recurse through components'
//!    `Requires` clauses.
//! 2. **Map linkage graphs onto the network** ([`Planner::plan`]),
//!    discarding mappings that violate any of the three validity
//!    conditions — installation conditions, property compatibility under
//!    environment transformation (Figure 4 rules), and load vs capacity —
//!    and keeping the one that optimizes the global [`Objective`].
//!
//! Three interchangeable search algorithms implement step 2: the
//! exhaustive oracle, a CANS-style chain [`dp`], and an IPP-style
//! branch-and-bound solver ([`pop`]). Property tests assert they agree.

#![warn(missing_docs)]

pub mod compat;
pub mod dp;
pub mod exhaustive;
pub mod hierarchy;
pub mod linkage;
pub mod load;
pub mod mapping;
mod memo;
pub mod plan;
pub mod planner;
pub mod pop;

pub use hierarchy::{HierConfig, HierMemo};
pub use linkage::{
    enumerate_linkages, enumerate_linkages_multi, LinkageGraph, LinkageLimits, LinkageNode,
};
pub use load::{propagate_rates, LoadModel, RatePlan};
pub use mapping::{Evaluation, Mapper, AVOID_PENALTY};
pub use plan::{
    ExistingInstance, Objective, Placement, Plan, PlanEdge, PlanError, PlanRepairStats, PlanStats,
    ServiceRequest,
};
pub use planner::{Algorithm, Planner, PlannerConfig, RepairContext};

/// Convenience prelude for planner users.
pub mod prelude {
    pub use crate::hierarchy::{HierConfig, HierMemo};
    pub use crate::linkage::{enumerate_linkages, LinkageGraph, LinkageLimits};
    pub use crate::load::LoadModel;
    pub use crate::plan::{Objective, Plan, PlanError, ServiceRequest};
    pub use crate::planner::{Algorithm, Planner, PlannerConfig};
}
