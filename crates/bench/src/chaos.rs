//! The chaos-recovery scenario: the mail case study under a seeded
//! fault schedule, healed automatically.
//!
//! Two clients connect — San Diego (trust 4) first, then Seattle
//! (trust 1), which chains onto San Diego's freshly deployed
//! `ViewMailServer` exactly as in Figure 6. Both connections go under
//! self-healing management, retry policies and leases are switched on,
//! and a [`FaultPlan`] crashes the San Diego client node mid-workload,
//! adding randomized-but-seeded WAN link flaps and a loss window. The
//! San Diego connection dies with its client; the Seattle connection
//! loses the mid-chain instances it was sharing and must be re-planned
//! and re-deployed by [`Framework::heal`](ps_core::Framework::heal) —
//! with **zero** manual `connect` calls — for its driver to finish the
//! workload.
//!
//! Everything reported in [`ChaosOutcome`] is virtual-time or
//! event-count derived; two runs with the same [`ChaosBenchConfig`]
//! produce identical [`ChaosOutcome::record`]s and byte-identical trace
//! JSONL streams.

use crate::cli::Args;
use crate::harness::{
    at_ms, close_record, connect_pair, counters, drain, driver, driver_record, driver_stats,
    enable_telemetry, healing_mail_framework, ms, span_ms, DriverStats, HealTally,
};
use crate::record::{num, Artifact, Record};
use ps_net::{default_case_study, CaseStudy, NodeId};
use ps_sim::{ChaosConfig, FaultPlan, SimDuration, SimTime};
use ps_smock::LeaseConfig;
use ps_trace::{SamplerConfig, SeriesSummary, Tracer};

/// Give up waiting for the Seattle driver after this much virtual time.
const HORIZON: SimTime = SimTime::from_nanos(300_000_000_000);

/// Parameters of one chaos-recovery run.
#[derive(Debug, Clone)]
pub struct ChaosBenchConfig {
    /// Seed for the workload, loss draws, and the randomized fault plan.
    pub seed: u64,
    /// When the San Diego client node crashes.
    pub crash_at: SimTime,
    /// Seattle workload size (sends / receives).
    pub seattle_ops: (u32, u32),
    /// San Diego workload size (sends / receives).
    pub sd_ops: (u32, u32),
    /// Lease parameters (the failure-detection interval): shorter
    /// heartbeats detect faster but renew more often.
    pub lease: LeaseConfig,
    /// Enable the world's time-series sampler with this config.
    pub sampler: Option<SamplerConfig>,
    /// Wire bytes per lease renewal charged to link utilization;
    /// `0` disables the renewal-traffic accounting.
    pub lease_renewal_bytes: u64,
}

impl Default for ChaosBenchConfig {
    fn default() -> Self {
        ChaosBenchConfig {
            seed: 42,
            crash_at: SimTime::from_nanos(1_000_000_000),
            seattle_ops: (3000, 150),
            sd_ops: (3000, 150),
            lease: LeaseConfig::default(),
            sampler: None,
            lease_renewal_bytes: 0,
        }
    }
}

/// Everything a chaos-recovery run measures (virtual-time derived only —
/// no wall clock, so same-seed runs serialize identically).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// When the crash fired.
    pub crash_at: SimTime,
    /// When the lease-based detector declared the crashed node down.
    pub detected_at: Option<SimTime>,
    /// The first healing pass that re-deployed the Seattle connection —
    /// possibly on partial lease evidence, before the node-down verdict.
    pub first_redeploy_at: Option<SimTime>,
    /// The healing pass after which the Seattle connection was repaired
    /// with the failed node known-dead and avoided.
    pub recovered_at: Option<SimTime>,
    /// When the replacement deployment was ready to serve.
    pub recovery_ready_at: Option<SimTime>,
    /// Whether the San Diego connection was abandoned (its client node
    /// is the node that crashed).
    pub sd_abandoned: bool,
    /// Successful redeployments across all healing passes.
    pub replans: usize,
    /// Infeasible re-plan outcomes across all healing passes.
    pub infeasible: usize,
    /// Healing passes executed.
    pub heal_passes: usize,
    /// Nodes quarantined by the healer.
    pub quarantined: Vec<NodeId>,
    /// Seattle driver statistics.
    pub seattle: DriverStats,
    /// San Diego driver statistics.
    pub sd: DriverStats,
    /// Selected deterministic counters from the trace registry, sorted
    /// by name.
    pub counters: Vec<(String, u64)>,
    /// Messages the run-time carried.
    pub messages: u64,
    /// Virtual completion time of the whole run.
    pub completed_at: SimTime,
    /// Lease-renewal bytes charged to the network (0 when accounting
    /// was off).
    pub lease_renewal_bytes: u64,
    /// Time-series summaries, sorted by name (empty when the sampler
    /// was off).
    pub series: Vec<(String, SeriesSummary)>,
}

impl ChaosOutcome {
    /// Crash-to-serving recovery latency, when recovery happened.
    pub fn recovery_latency(&self) -> Option<SimDuration> {
        Some(self.recovery_ready_at?.since(self.crash_at))
    }

    /// Detection latency (crash to lease-expiry verdict).
    pub fn detection_latency(&self) -> Option<SimDuration> {
        Some(self.detected_at?.since(self.crash_at))
    }

    /// The `BENCH_chaos.json` record.
    pub fn record(&self) -> Record {
        let recovery = Record::new()
            .with("first_redeploy_at_ms", at_ms(self.first_redeploy_at))
            .with("recovered_at_ms", at_ms(self.recovered_at))
            .with("ready_at_ms", at_ms(self.recovery_ready_at))
            .with("latency_ms", span_ms(self.recovery_latency()))
            .with("replans", self.replans)
            .with("infeasible", self.infeasible)
            .with("heal_passes", self.heal_passes)
            .with(
                "quarantined",
                self.quarantined.iter().map(|n| n.0).collect::<Vec<_>>(),
            );
        let record = Record::new()
            .with("bench", "chaos_recovery")
            .with("seed", self.seed)
            .with("crash_at_ms", num(ms(self.crash_at), 3))
            .with("detected_at_ms", at_ms(self.detected_at))
            .with("detection_latency_ms", span_ms(self.detection_latency()))
            .with("recovery", recovery)
            .with("sd_abandoned", self.sd_abandoned)
            .with("seattle", driver_record(&self.seattle, "crash", None))
            .with("sd", driver_record(&self.sd, "crash", None));
        close_record(record, &self.counters, self.messages, self.completed_at)
    }
}

/// The fault schedule: a deterministic crash of the San Diego client
/// node, plus seeded WAN link flaps and a loss window on the New York –
/// Seattle link.
fn build_fault_plan(config: &ChaosBenchConfig, cs: &CaseStudy) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.crash(config.crash_at, cs.sd_client.0);
    let link = |a, b| cs.network.link_between(a, b).expect("WAN link").id.0;
    let ny_sd = link(cs.ny_gateway, cs.sd_gateway);
    let sea_sd = link(cs.seattle_gateway, cs.sd_gateway);
    let ny_sea = link(cs.ny_gateway, cs.seattle_gateway);
    // Flaps on the San Diego WAN legs, well after recovery has begun.
    let window = ChaosConfig {
        start: config.crash_at + SimDuration::from_secs(15),
        horizon: config.crash_at + SimDuration::from_secs(60),
        crashable_nodes: Vec::new(),
        flappable_links: vec![ny_sd, sea_sd],
        node_crashes: 0,
        link_flaps: 2,
        loss_windows: 0,
        loss_range: (0.0, 0.0),
        min_outage: SimDuration::from_millis(500),
        max_outage: SimDuration::from_secs(3),
        restart_nodes: false,
        ..ChaosConfig::default()
    };
    for ev in FaultPlan::randomized(config.seed, &window).events() {
        plan.push(ev.at, ev.kind);
    }
    // One loss window on the live New York – Seattle path, exercising
    // the retry machinery without severing the route.
    let loss = ChaosConfig {
        flappable_links: vec![ny_sea],
        node_crashes: 0,
        link_flaps: 0,
        loss_windows: 1,
        loss_range: (0.10, 0.30),
        min_outage: SimDuration::from_secs(1),
        max_outage: SimDuration::from_secs(4),
        ..window.clone()
    };
    for ev in FaultPlan::randomized(config.seed ^ 0x1055, &loss).events() {
        plan.push(ev.at, ev.kind);
    }
    plan
}

/// Runs the chaos-recovery scenario. The tracer (enabled or disabled)
/// is installed across the whole stack; pass `Tracer::memory()`'s
/// handle to capture the event stream.
pub fn run_chaos(config: &ChaosBenchConfig, tracer: &Tracer) -> ChaosOutcome {
    let cs = default_case_study();
    let mut framework = healing_mail_framework(
        cs.network.clone(),
        cs.mail_server,
        tracer,
        config.seed,
        config.lease,
    );
    enable_telemetry(&mut framework, config.sampler, config.lease_renewal_bytes);
    framework
        .world
        .install_fault_plan(&build_fault_plan(config, &cs));
    let (sd, sea) = connect_pair(
        &mut framework,
        &cs,
        config.seed,
        config.sd_ops,
        config.seattle_ops,
    );

    // Phase 1: the healthy workload up to the crash.
    framework.run_until(config.crash_at);
    let sea_before_crash = driver(&mut framework.world, sea.driver).completed.len();
    let sd_before_crash = driver(&mut framework.world, sd.driver).completed.len();

    // Phase 2: the healing loop until the Seattle driver finishes or the
    // horizon runs out. No manual `connect`. Each lease expiry and each
    // link transition wakes one pass.
    //
    // The first expiry's pass sees only part of the crashed node's
    // leases: it re-deploys the implicated connections on partial
    // knowledge, with the node suspect — down-weighted, not excluded.
    // At seed 42 that alone moves Seattle's chain off the node. Had the
    // planner picked the node anyway, the replacements there would be
    // born dead: retired at birth, they schedule no lease expiry and
    // raise no wake. What then moves the chain is the `NodeDown` pass:
    // the quarantine's monitor diff reports the node down on the plan's
    // edges, and the replanner consult redeploys. `first_redeploy_at`
    // records the first, possibly premature attempt; `recovered_at` the
    // first pass at or after the `NodeDown` verdict whose Seattle plan
    // avoids every quarantined node.
    let mut first_redeploy_at = None;
    let mut recovered_at = None;
    let mut recovery_ready_at = None;
    let mut heal = HealTally::default();
    while let Some(report) = framework.heal_next(HORIZON) {
        heal.record(&report);
        if report.recovered.contains(&sea.handle) && first_redeploy_at.is_none() {
            first_redeploy_at = Some(report.at);
        }
        // Recovery is complete once the failed node is known-dead and
        // the (re-deployed) Seattle plan no longer touches any
        // quarantined node.
        if heal.detected(cs.sd_client).is_some()
            && recovered_at.is_none()
            && first_redeploy_at.is_some()
        {
            if let Some(c) = framework.managed_connection(sea.handle) {
                let healthy = c
                    .plan
                    .placements
                    .iter()
                    .all(|p| !heal.quarantined.contains(&p.node));
                if healthy {
                    recovered_at = Some(report.at);
                    recovery_ready_at = Some(c.ready_at);
                }
            }
        }
        // Exit only once the Seattle connection has been re-deployed
        // AND its driver has finished: the crash guts Seattle's
        // mid-chain (its view path shares San Diego's instances), and
        // the run must demonstrate both detection and repair.
        if recovered_at.is_some() && driver(&mut framework.world, sea.driver).is_done() {
            break;
        }
    }
    // Drain whatever is still in flight (stray retries, fault events).
    let (series, lease_renewal_bytes) = drain(&mut framework, None);

    ChaosOutcome {
        seed: config.seed,
        crash_at: config.crash_at,
        detected_at: heal.detected(cs.sd_client),
        first_redeploy_at,
        recovered_at,
        recovery_ready_at,
        sd_abandoned: framework.managed_connection(sd.handle).is_none(),
        replans: heal.replans,
        infeasible: heal.infeasible,
        heal_passes: heal.passes,
        quarantined: heal.quarantined,
        seattle: driver_stats(&mut framework.world, sea.driver, sea_before_crash),
        sd: driver_stats(&mut framework.world, sd.driver, sd_before_crash),
        counters: counters(tracer),
        messages: framework.world.messages_sent(),
        completed_at: framework.world.now(),
        lease_renewal_bytes,
        series,
    }
}

/// `ps-bench chaos [SEED] [JSONL]`: the chaos-recovery run at `SEED`
/// (default 42), checked for automatic recovery; writes
/// `BENCH_chaos.json` and, given `JSONL`, the trace event stream.
pub fn command(args: &Args) -> Result<Artifact, String> {
    let seed = args.int(0, "SEED", 42)?;
    let (tracer, sink) = Tracer::memory();
    let outcome = run_chaos(
        &ChaosBenchConfig {
            seed,
            ..ChaosBenchConfig::default()
        },
        &tracer,
    );
    // The headline claim: automatic recovery. The crash kills the San
    // Diego connection outright (its client died) and guts the Seattle
    // connection's mid-chain; healing must restore Seattle to service
    // without any manual reconnect.
    assert!(outcome.sd_abandoned, "SD connection should be abandoned");
    assert!(
        outcome.detected_at.is_some(),
        "lease expiry should detect the crash"
    );
    assert!(outcome.replans >= 1, "healer should redeploy Seattle");
    assert!(
        outcome.seattle.done,
        "Seattle workload should finish after recovery"
    );
    assert!(
        outcome.seattle.completed > outcome.seattle.completed_before_crash,
        "Seattle should complete operations after the crash"
    );

    let record = outcome.record();
    let mut artifact = Artifact::new("Chaos recovery: crash, detect, heal");
    artifact.file("BENCH_chaos.json", record);
    if let Some(path) = args.get(1) {
        artifact.stream(path, sink.to_jsonl());
    }
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_recovers_the_seattle_connection() {
        let config = ChaosBenchConfig {
            seed: 7,
            crash_at: SimTime::from_nanos(50_000_000),
            seattle_ops: (60, 5),
            sd_ops: (60, 5),
            ..ChaosBenchConfig::default()
        };
        let outcome = run_chaos(&config, &Tracer::disabled());
        assert!(outcome.sd_abandoned, "SD client node crashed");
        assert!(outcome.replans >= 1, "Seattle must be re-deployed");
        assert!(outcome.detected_at.is_some(), "leases detect the crash");
        assert!(outcome.seattle.done, "Seattle finishes its workload");
        assert!(
            outcome.seattle.completed > outcome.seattle.completed_before_crash,
            "operations complete after the crash (service restored)"
        );
    }
}
