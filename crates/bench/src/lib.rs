//! # ps-bench — benchmark harness for every table and figure
//!
//! One module per experiment; the `src/bin/` binaries print the paper's
//! rows/series and time the hot paths (`bench_planner`, `bench_scale`).
//! The fault scenarios share one service assembly and one heal loop,
//! [`harness`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod harness;
pub mod partition;
pub mod scale;
pub mod scenarios;

pub use chaos::{outcome_json, run_chaos, ChaosBenchConfig, ChaosOutcome};
pub use harness::DriverStats;
pub use partition::{partition_json, run_partition, PartitionBenchConfig, PartitionOutcome};
pub use scale::{run_heal_workload, scale_network, HealWorkloadOptions, HealWorkloadOutcome};

/// Whether the bench bins should write *stable* artifacts: every
/// wall-clock-derived field zeroed/omitted so that two same-seed runs
/// produce byte-identical JSON/JSONL.
///
/// Enabled by `PS_STABLE_ARTIFACTS=1`; `scripts/verify.sh` uses it for
/// the double-run determinism gate over every artifact-writing bin. The
/// default (unset) keeps the real timing numbers in the published
/// `BENCH_*.json` artifacts.
pub fn stable_artifacts() -> bool {
    std::env::var("PS_STABLE_ARTIFACTS").is_ok_and(|v| v == "1")
}
pub use scenarios::{
    figure7_sweep, render_figure7, run_custom_policy, run_scenario, run_scenario_with_policy,
    Fig7Config, Scenario, ScenarioResult,
};
