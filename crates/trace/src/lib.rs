//! # ps-trace — deterministic, sim-time-aware tracing and metrics
//!
//! Observability for the partitionable-services reproduction. The crate
//! is deliberately zero-dependency (it sits *below* `ps-sim` in the
//! dependency graph) and carries virtual time as raw integer nanoseconds
//! (`sim_ns`), which callers obtain from `SimTime::as_nanos()`.
//!
//! Three pieces:
//!
//! - **Events** ([`Event`], [`Tracer`], [`Sink`]): structured span
//!   enter/exit and instant records stamped with virtual time and a
//!   monotone sequence number. Under a fixed seed, two identical runs
//!   serialize to byte-identical JSONL streams — wall-clock values are
//!   banned from event fields by convention.
//! - **Metrics** ([`Registry`]): named counters, gauges, and log-bucketed
//!   percentile histograms behind one handle. This is where *host*-time
//!   measurements (planning wall-clock, per-region plan time) belong,
//!   since the registry is reported separately and makes no determinism
//!   promise.
//! - **Time series** ([`Sampler`]): ring-buffered, zero-suppressed
//!   virtual-time series sampled on a fixed cadence by the simulation
//!   host (link utilization, CPU busy, queue depth, live instances).
//! - **Analysis** ([`breakdown`], [`critical`], [`timeline`],
//!   [`Report`]): reconstruct per-request latency breakdowns (the
//!   paper's Figure 7 decomposition: lookup / plan / transfer / deploy /
//!   invoke), extract span-tree critical paths, audit heal timelines
//!   (detection → quarantine → redeploy), and render human-readable
//!   reports.
//!
//! The default [`Tracer`] is disabled — a `None` handle whose every call
//! is a single branch — so instrumented hot paths cost nothing when
//! observability is off.
//!
//! ```
//! use ps_trace::{breakdown, Tracer};
//!
//! let (tracer, sink) = Tracer::memory();
//! let span = tracer.enter("server", "plan", 0, vec![("scope", "conn-0".into())]);
//! span.exit(2_000_000); // exited at t = 2 ms (virtual)
//! tracer.count("server.plans", 1);
//!
//! let events = sink.events();
//! let all = breakdown::breakdowns(&events);
//! assert_eq!(all[0].phase_ns("plan"), 2_000_000);
//! assert_eq!(tracer.registry().unwrap().counter("server.plans"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod critical;
pub mod event;
pub mod registry;
pub mod report;
pub mod sampler;
pub mod sink;
pub mod timeline;
pub mod tracer;
pub mod wallclock;

pub use breakdown::{breakdowns, closed_spans, Breakdown, ClosedSpan, PhaseAgg};
pub use critical::{critical_paths, scope_critical_path, CriticalPath, Segment};
pub use event::{Event, EventKind, FieldValue, Fields};
pub use registry::{Histogram, Metric, Registry};
pub use report::Report;
pub use sampler::{Sampler, SamplerConfig, Series, SeriesSummary};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};
pub use timeline::{HealPass, HealTimeline, Incident};
pub use tracer::{SpanGuard, Tracer};
pub use wallclock::WallTimer;

/// Glob-import convenience: `use ps_trace::prelude::*;`.
pub mod prelude {
    pub use crate::breakdown::{breakdowns, Breakdown};
    pub use crate::event::{Event, EventKind, FieldValue, Fields};
    pub use crate::registry::Registry;
    pub use crate::report::Report;
    pub use crate::sink::{JsonlSink, MemorySink, NullSink, Sink};
    pub use crate::tracer::{SpanGuard, Tracer};
}
