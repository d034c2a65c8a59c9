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
//! One search implements step 2: [`exhaustive`], the paper's exhaustive
//! search made fast by admissible branch-and-bound pruning and a
//! plan-scoped memo. Both entry points — flat [`Planner::plan`] and
//! [`hierarchy`]-composed [`Planner::plan_hierarchical`] — wrap one
//! private solve, a replan after damage is the same call as a first
//! plan, and the tests hold the search to an unbounded, memo-free
//! reference descent on value and placements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compat;
pub mod exhaustive;
pub mod hierarchy;
pub mod linkage;
pub mod load;
pub mod mapping;
mod memo;
pub mod plan;
pub mod planner;

pub use hierarchy::{HierConfig, HierMemo};
pub use linkage::{
    enumerate_linkages, enumerate_linkages_multi, LinkageGraph, LinkageLimits, LinkageNode,
};
pub use load::{propagate_rates, RatePlan};
pub use mapping::{Evaluation, Mapper, AVOID_PENALTY};
pub use plan::{
    ExistingInstance, Objective, Placement, Plan, PlanEdge, PlanError, PlanStats, ServiceRequest,
};
pub use planner::{Algorithm, Planner, PlannerConfig};

/// Convenience prelude for planner users.
pub mod prelude {
    pub use crate::hierarchy::{HierConfig, HierMemo};
    pub use crate::linkage::{enumerate_linkages, LinkageGraph, LinkageLimits};
    pub use crate::plan::{Objective, Plan, PlanError, ServiceRequest};
    pub use crate::planner::{Algorithm, Planner, PlannerConfig};
}
