//! The partition scenario: the case-study WAN splits mid-workload and
//! the healer serves **both sides** of the cut.
//!
//! A correlated fault domain severs every WAN leg of the Seattle
//! gateway at `split_at`: the partner site keeps running but is cut off
//! from New York and San Diego. The majority side (NY + SD) never loses
//! its route to the pinned `MailServer` and keeps operating untouched.
//! The minority side's connection is re-deployed by [`Framework::heal`]
//! onto a **degraded-mode** chain — a detached `ViewMailServer` inside
//! the Seattle component that absorbs writes locally and serves reads
//! from cache. At `restore_at` the legs come back; the next healing
//! pass *reconciles*: it re-plans cold on the merged network, re-wires
//! the detached view at the full chain so its buffered writes drain
//! upstream, then retires the duplicate instances.
//!
//! Everything in [`PartitionOutcome`] is virtual-time or event-count
//! derived; two runs with the same [`PartitionBenchConfig`] produce
//! identical [`PartitionOutcome::record`]s and byte-identical trace
//! JSONL.

use crate::cli::Args;
use crate::harness::{
    at_ms, close_record, connect_pair, counters, driver, driver_record, driver_stats,
    healing_mail_framework, ms, span_ms, DriverStats, HealTally,
};
use crate::record::{num, Artifact, Record, Value};
use ps_core::Framework;
use ps_net::casestudy::SEATTLE;
use ps_net::default_case_study;
use ps_sim::{FaultPlan, SimDuration, SimTime};
use ps_smock::LeaseConfig;
use ps_trace::Tracer;

/// Give up waiting for reconciliation / drivers after this much virtual
/// time.
const HORIZON: SimTime = SimTime::from_nanos(300_000_000_000);

/// Parameters of one partition/reconcile run.
#[derive(Debug, Clone)]
pub struct PartitionBenchConfig {
    /// Seed for the workload and message-size draws.
    pub seed: u64,
    /// When the Seattle WAN legs are severed.
    pub split_at: SimTime,
    /// When the legs are restored.
    pub restore_at: SimTime,
    /// Seattle workload size (sends / receives).
    pub seattle_ops: (u32, u32),
    /// San Diego workload size (sends / receives).
    pub sd_ops: (u32, u32),
}

impl Default for PartitionBenchConfig {
    fn default() -> Self {
        PartitionBenchConfig {
            seed: 42,
            split_at: SimTime::from_nanos(2_000_000_000),
            restore_at: SimTime::from_nanos(32_000_000_000),
            seattle_ops: (3000, 150),
            sd_ops: (3000, 150),
        }
    }
}

/// Everything a partition run measures (virtual-time derived only).
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// When the WAN legs went down.
    pub split_at: SimTime,
    /// When the WAN legs came back.
    pub restore_at: SimTime,
    /// The healing pass that deployed Seattle's degraded chain.
    pub degraded_at: Option<SimTime>,
    /// The partition epoch stamped on the degraded deployment.
    pub degraded_epoch: Option<u64>,
    /// The healing pass that reconciled Seattle back onto a full chain.
    pub reconciled_at: Option<SimTime>,
    /// Healing passes executed.
    pub heal_passes: usize,
    /// Successful redeployments across all passes.
    pub replans: usize,
    /// Infeasible re-plan outcomes across all passes.
    pub infeasible: usize,
    /// Instances retired across all passes (reconcile retires the
    /// degraded duplicates).
    pub retired: usize,
    /// Seattle driver statistics (minority side).
    pub seattle: DriverStats,
    /// San Diego driver statistics (majority side).
    pub sd: DriverStats,
    /// Seattle operations completed inside `[split_at, restore_at)` —
    /// the degraded chain serving the minority locally.
    pub seattle_during_split: usize,
    /// San Diego operations completed inside the same window — the
    /// majority side untouched by the cut.
    pub sd_during_split: usize,
    /// Expected latency of Seattle's initial (pre-split) plan, ms.
    pub initial_latency_ms: f64,
    /// Expected latency of the degraded plan, ms.
    pub degraded_latency_ms: Option<f64>,
    /// Expected latency of the reconciled plan, ms — equal to the
    /// initial plan's latency when reconciliation converged back to the
    /// cold-plan optimum.
    pub reconciled_latency_ms: Option<f64>,
    /// Selected deterministic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Messages the run-time carried.
    pub messages: u64,
    /// Virtual completion time of the whole run.
    pub completed_at: SimTime,
}

impl PartitionOutcome {
    /// Restore-to-reconciled latency, when reconciliation happened.
    pub fn reconcile_latency(&self) -> Option<SimDuration> {
        Some(self.reconciled_at?.since(self.restore_at))
    }

    /// Split-to-degraded-serving latency, when the degraded deploy
    /// happened.
    pub fn degraded_latency(&self) -> Option<SimDuration> {
        Some(self.degraded_at?.since(self.split_at))
    }

    /// The `BENCH_partition.json` record.
    pub fn record(&self) -> Record {
        let plan_ms = |v: Option<f64>| Value::from(v.map(|v| num(v, 6)));
        let degraded = Record::new()
            .with("at_ms", at_ms(self.degraded_at))
            .with("latency_after_split_ms", span_ms(self.degraded_latency()))
            .with("epoch", self.degraded_epoch)
            .with("plan_latency_ms", plan_ms(self.degraded_latency_ms));
        let reconcile = Record::new()
            .with("at_ms", at_ms(self.reconciled_at))
            .with(
                "latency_after_restore_ms",
                span_ms(self.reconcile_latency()),
            )
            .with("plan_latency_ms", plan_ms(self.reconciled_latency_ms))
            .with("initial_plan_latency_ms", num(self.initial_latency_ms, 6))
            .with("retired", self.retired);
        let record = Record::new()
            .with("bench", "chaos_partition")
            .with("seed", self.seed)
            .with("split_at_ms", num(ms(self.split_at), 3))
            .with("restore_at_ms", num(ms(self.restore_at), 3))
            .with("degraded", degraded)
            .with("reconcile", reconcile)
            .with("heal_passes", self.heal_passes)
            .with("replans", self.replans)
            .with("infeasible", self.infeasible)
            .with(
                "seattle",
                driver_record(&self.seattle, "split", Some(self.seattle_during_split)),
            )
            .with(
                "sd",
                driver_record(&self.sd, "split", Some(self.sd_during_split)),
            );
        close_record(record, &self.counters, self.messages, self.completed_at)
    }
}

/// Runs the partition scenario.
pub fn run_partition(config: &PartitionBenchConfig, tracer: &Tracer) -> PartitionOutcome {
    let cs = default_case_study();
    let mut framework = healing_mail_framework(
        cs.network.clone(),
        cs.mail_server,
        tracer,
        config.seed,
        LeaseConfig::default(),
    );
    // The correlated fault domain: every WAN leg of the Seattle gateway,
    // down at the split and back at the restore.
    let legs = cs.wan_leg_domain(SEATTLE);
    let mut plan = FaultPlan::new();
    plan.domain_down(config.split_at, &legs);
    plan.domain_up(config.restore_at, &legs);
    framework.world.install_fault_plan(&plan);
    let (sd, sea) = connect_pair(
        &mut framework,
        &cs,
        config.seed,
        config.sd_ops,
        config.seattle_ops,
    );
    let sea_latency = |framework: &Framework| {
        framework
            .managed_connection(sea.handle)
            .map(|c| c.plan.expected_latency_ms)
    };
    let initial_latency_ms = sea_latency(&framework).expect("Seattle connection");
    let completed = |framework: &mut Framework| {
        [sea.driver, sd.driver].map(|id| driver(&mut framework.world, id).completed.len())
    };

    // Phase 1: the healthy workload up to the split.
    framework.run_until(config.split_at);
    let [sea_at_split, sd_at_split] = completed(&mut framework);

    // Phase 2: the split window. The split's link transitions wake the
    // healer, whose pass recognizes the cut and deploys the degraded
    // per-component chain for Seattle; San Diego keeps its full chain
    // (its routes never crossed the severed legs). The restore events
    // fire *at* `restore_at`, where `heal_next` runs no pass: the pass
    // that observes the merge belongs to phase 3.
    let mut degraded_at = None;
    let mut degraded_epoch = None;
    let mut degraded_latency_ms = None;
    let mut heal = HealTally::default();
    while let Some(report) = framework.heal_next(config.restore_at) {
        heal.record(&report);
        if report.degraded.contains(&sea.handle) && degraded_at.is_none() {
            degraded_at = Some(report.at);
            degraded_epoch = framework.managed_partition_epoch(sea.handle);
            degraded_latency_ms = sea_latency(&framework);
        }
    }
    let [sea_at_restore, sd_at_restore] = completed(&mut framework);

    // Phase 3: the merge. The restore's undrained liveness events wake
    // the first pass here, which sees the closed partition and
    // reconciles Seattle back onto the cold-plan chain, draining the
    // detached view's buffered writes before retiring it. The plan
    // holds no fault after the restore, so nothing wakes the healer
    // again and the drivers finish in the drain.
    let mut reconciled_at = None;
    let mut reconciled_latency_ms = None;
    while let Some(report) = framework.heal_next(HORIZON) {
        heal.record(&report);
        if report.reconciled.contains(&sea.handle) {
            reconciled_at = Some(report.at);
            reconciled_latency_ms = sea_latency(&framework);
            break;
        }
    }
    // Drain whatever is still in flight.
    framework.run();

    PartitionOutcome {
        seed: config.seed,
        split_at: config.split_at,
        restore_at: config.restore_at,
        degraded_at,
        degraded_epoch,
        reconciled_at,
        heal_passes: heal.passes,
        replans: heal.replans,
        infeasible: heal.infeasible,
        retired: heal.retired,
        seattle: driver_stats(&mut framework.world, sea.driver, sea_at_split),
        sd: driver_stats(&mut framework.world, sd.driver, sd_at_split),
        seattle_during_split: sea_at_restore - sea_at_split,
        sd_during_split: sd_at_restore - sd_at_split,
        initial_latency_ms,
        degraded_latency_ms,
        reconciled_latency_ms,
        counters: counters(tracer),
        messages: framework.world.messages_sent(),
        completed_at: framework.world.now(),
    }
}

/// `ps-bench partition [SEED] [JSONL]`: the partition run at `SEED`
/// (default 42), checked for serving both sides and reconciling; writes
/// `BENCH_partition.json` and, given `JSONL`, the trace event stream.
pub fn command(args: &Args) -> Result<Artifact, String> {
    let seed = args.int(0, "SEED", 42)?;
    let (tracer, sink) = Tracer::memory();
    let outcome = run_partition(
        &PartitionBenchConfig {
            seed,
            ..PartitionBenchConfig::default()
        },
        &tracer,
    );
    // The headline claims: during the split *both* sides are served —
    // the majority untouched, the minority on a local degraded chain —
    // and the merge reconciles back to the cold-plan optimum with the
    // duplicates retired and nothing lost on the majority side.
    assert_eq!(outcome.sd.lost, 0, "majority side must lose nothing");
    assert!(
        outcome.sd_during_split > 0,
        "majority side keeps operating through the split"
    );
    assert!(
        outcome.degraded_at.is_some(),
        "minority side should get a degraded chain"
    );
    assert!(
        outcome.seattle_during_split > 0,
        "minority side should be served during the split"
    );
    assert!(
        outcome.reconciled_at.is_some(),
        "the merge should reconcile"
    );
    assert!(
        outcome.retired > 0,
        "reconcile should retire the degraded duplicates"
    );
    if let Some(reconciled) = outcome.reconciled_latency_ms {
        assert!(
            (reconciled - outcome.initial_latency_ms).abs() < 1e-9,
            "reconciled plan should converge to the cold-plan optimum"
        );
    }

    let record = outcome.record();
    let mut artifact = Artifact::new("Partition: split, serve both sides, reconcile");
    artifact.file("BENCH_partition.json", record);
    if let Some(path) = args.get(1) {
        artifact.stream(path, sink.to_jsonl());
    }
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_are_served_and_the_merge_reconciles() {
        let config = PartitionBenchConfig {
            seed: 7,
            split_at: SimTime::from_nanos(50_000_000),
            restore_at: SimTime::from_nanos(5_000_000_000),
            seattle_ops: (60, 5),
            sd_ops: (60, 5),
        };
        let o = run_partition(&config, &Tracer::disabled());
        // Majority side: the cut never touches the NY-SD leg.
        assert_eq!(o.sd.lost, 0, "majority side must lose nothing");
        assert!(o.sd_during_split > 0, "majority side keeps operating");
        // Minority side: the degraded chain serves Seattle locally.
        assert!(o.degraded_at.is_some(), "Seattle gets a degraded chain");
        assert!(
            o.degraded_epoch.is_some(),
            "degraded deploys carry the epoch"
        );
        assert!(
            o.seattle_during_split > 0,
            "minority side is served during the split"
        );
        // The merge reconciles back to the cold-plan optimum.
        assert!(o.reconciled_at.is_some(), "merge must reconcile");
        assert!(o.retired > 0, "reconcile retires degraded duplicates");
        let reconciled = o.reconciled_latency_ms.expect("reconciled plan latency");
        assert!(
            (reconciled - o.initial_latency_ms).abs() < 1e-9,
            "reconciled plan must converge to the cold-plan optimum \
             ({reconciled} vs {})",
            o.initial_latency_ms
        );
        assert!(o.seattle.done, "Seattle finishes its workload");
        assert!(o.sd.done, "San Diego finishes its workload");
    }
}
