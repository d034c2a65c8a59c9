//! # ps-smock — the Smock run-time system (Section 3.2)
//!
//! Smock ("Secure MObile Code, plus a k") is the run-time layer of the
//! partitionable services framework: a generic proxy and server backed by
//! an attribute-based lookup service, node wrappers that install and wire
//! components shipped to them, and a directory-based cache-coherence
//! layer for replicated data views.
//!
//! In this reproduction the run-time executes inside a deterministic
//! discrete-event [`World`]: deployed [`component::ComponentLogic`]
//! instances exchange messages over traffic-shaped links and FIFO node
//! CPUs, so every latency the paper measured on its Click-shaped testbed
//! has a physical counterpart here. Java's dynamic class loading is
//! replaced by a component factory [`registry`] plus blueprint shipping
//! (see DESIGN.md for the substitution argument).
//!
//! The crate's pieces, in the paper's order:
//!
//! * [`lookup`] — Jini-style attribute lookup (Figure 1, steps 1–2);
//! * [`server`] — the generic proxy / generic server timeline
//!   (steps 3–5), reporting the one-time costs of Section 4.2;
//! * [`registry`] / [`deploy`] — node wrappers: remote installation,
//!   instance reuse, linkage wiring;
//! * [`coherence`] — directory, conflict maps, and weak-consistency
//!   policies at view granularity;
//! * [`world`] / [`component`] — the simulated execution substrate:
//!   one event dispatch, with message transport, request retry, leases,
//!   injected faults, sampling and migration each in a module of its
//!   own;
//! * [`fault`] — the liveness, retry and lease types the world reports
//!   failures in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coherence;
pub mod component;
pub mod deploy;
pub mod fault;
pub mod lookup;
pub mod registry;
pub mod server;
pub mod world;

pub use coherence::{CoherencePolicy, Directory, FlushDecision, ReplicaCoherence, ViewScope};
pub use component::{
    Action, ComponentLogic, InstanceId, InstanceInfo, Outbox, Payload, RequestHandle,
};
pub use deploy::{DeployError, Deployment};
pub use fault::{InvokeError, LeaseConfig, LivenessEvent, LivenessKind, RetryPolicy};
pub use lookup::{LookupService, ServiceRegistration};
pub use ps_trace::Tracer;
pub use registry::{Blueprint, ComponentRegistry, Factory, FactoryArgs};
pub use server::{ConnectError, Connection, GenericServer, OneTimeCosts};
pub use world::World;

/// Convenience prelude for run-time users.
pub mod prelude {
    pub use crate::coherence::{
        CoherencePolicy, Directory, FlushDecision, ReplicaCoherence, ViewScope,
    };
    pub use crate::component::{ComponentLogic, InstanceId, Outbox, Payload, RequestHandle};
    pub use crate::deploy::Deployment;
    pub use crate::fault::{InvokeError, LeaseConfig, LivenessEvent, RetryPolicy};
    pub use crate::lookup::{LookupService, ServiceRegistration};
    pub use crate::registry::{ComponentRegistry, FactoryArgs};
    pub use crate::server::{Connection, GenericServer, OneTimeCosts};
    pub use crate::world::World;
}
