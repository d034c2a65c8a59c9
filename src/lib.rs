//! # partitionable-services
//!
//! A from-scratch Rust reproduction of *Partitionable Services: A
//! Framework for Seamlessly Adapting Distributed Applications to
//! Heterogeneous Environments* (Ivan, Harman, Allen, Karamcheti,
//! HPDC 2002).
//!
//! This facade crate re-exports every workspace crate under one stable
//! namespace:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`spec`] | `ps-spec` | declarative service specifications (§3.1) |
//! | [`net`] | `ps-net` | the network model + BRITE-style generators (§3.3) |
//! | [`sim`] | `ps-sim` | the deterministic discrete-event substrate (§4) |
//! | [`planner`] | `ps-planner` | linkage enumeration + mapping search (§3.3) |
//! | [`smock`] | `ps-smock` | the Smock run-time (§3.2) |
//! | [`mail`] | `ps-mail` | the security-sensitive mail case study (§2, §4) |
//! | [`drbac`] | `ps-drbac` | trust management (§6 future work) |
//! | [`monitor`] | `ps-monitor` | monitoring + re-planning (§6 future work) |
//! | [`trace`] | `ps-trace` | sim-time-aware tracing + metrics (observability) |
//! | [`core`] | `ps-core` | the assembled [`core::Framework`] |
//!
//! ```
//! use partitionable_services::mail::{mail_spec, mail_translator};
//! use partitionable_services::net::default_case_study;
//! use partitionable_services::planner::{Planner, ServiceRequest};
//!
//! // Reproduce the paper's New York deployment decision in five lines.
//! let cs = default_case_study();
//! let planner = Planner::new(mail_spec());
//! let request = ServiceRequest::new("ClientInterface", cs.ny_client)
//!     .pin("MailServer", cs.mail_server)
//!     .require("TrustLevel", 4i64);
//! let plan = planner.plan(&cs.network, &mail_translator(), &request).unwrap();
//! assert_eq!(plan.graph.to_string(), "MailClient -> MailServer");
//! ```

#![forbid(unsafe_code)]

pub use ps_core as core;
pub use ps_drbac as drbac;
pub use ps_mail as mail;
pub use ps_monitor as monitor;
pub use ps_net as net;
pub use ps_planner as planner;
pub use ps_sim as sim;
pub use ps_smock as smock;
pub use ps_spec as spec;
pub use ps_trace as trace;
