//! # ps-sim — deterministic discrete-event simulation substrate
//!
//! The paper's evaluation ran on a Pentium-III testbed whose links were
//! shaped by a Click modular-router configuration (Section 4). This crate
//! is that substrate's stand-in: a deterministic virtual-time engine
//! ([`Engine`]) with store-and-forward link models ([`LinkModel`]) and
//! FIFO CPU models ([`CpuModel`]), plus running summaries and exact
//! percentiles ([`stats`]) and a version-stable random-number generator
//! ([`Rng`]) that make every experiment exactly reproducible from a
//! seed. The engine keeps pending events in one binary heap ordered by
//! firing time, ties in scheduling order.
//!
//! ```
//! use ps_sim::prelude::*;
//!
//! // One client sends a 1 MB message over an 8 Mb/s, 400 ms link.
//! let mut link = LinkModel::new(SimDuration::from_millis(400), 8e6);
//! let mut engine: Engine<&str> = Engine::new();
//! let arrive = link.transmit(engine.now(), 1_000_000);
//! engine.schedule_at(arrive, "delivered");
//! let mut seen = Vec::new();
//! engine.run(&mut seen, |_, seen, e| seen.push(e));
//! assert_eq!(seen, ["delivered"]);
//! assert_eq!(engine.now().as_millis_f64(), 1400.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::Engine;
pub use fault::{ChaosConfig, FaultDomain, FaultEvent, FaultKind, FaultPlan};
pub use ps_trace::Tracer;
pub use resources::{CpuModel, LinkModel};
pub use rng::Rng;
pub use stats::{Percentiles, Summary};
pub use time::{SimDuration, SimTime};

/// Convenience prelude for simulation users.
pub mod prelude {
    pub use crate::engine::Engine;
    pub use crate::fault::{ChaosConfig, FaultDomain, FaultEvent, FaultKind, FaultPlan};
    pub use crate::resources::{CpuModel, LinkModel};
    pub use crate::rng::Rng;
    pub use crate::stats::{Percentiles, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use ps_trace::Tracer;
}
