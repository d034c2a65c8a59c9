//! # ps-bench — the paper's figures, tables, ablations and reports
//!
//! One binary, `ps-bench <command>` ([`cli`]), with one module per
//! experiment. Every command returns an [`Artifact`](record::Artifact):
//! what it prints and, for the `BENCH_*.json` writers, the
//! [`Record`](record::Record) written to disk, both rendered from the
//! same figures by one writer. The fault scenarios share one service
//! assembly and one heal loop, [`harness`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablations;
pub mod chaos;
pub mod cli;
pub mod harness;
mod paper;
pub mod partition;
mod planner;
pub mod record;
pub mod scale;
pub mod scenarios;
mod timeline;
mod trace;

pub use record::Mode;
pub use scenarios::{run_scenario, Fig7Config, Scenario};
