//! What one repetition of a workload measured, and how repetitions fold
//! into the catalogue's metrics.
//!
//! Wall readings are reduced within a repetition (a quantile over its
//! calls) and then by the median over repetitions, so one disturbed
//! repetition does not move the result. Everything else — virtual times, counts, digests —
//! is deterministic for a seed, identical in every repetition, and taken
//! from the first.

use crate::harness::{median, quantile, ratio};
use ps_planner::PlanStats;
use std::collections::BTreeMap;

/// One `Framework::connect` that missed the plan cache.
#[derive(Debug, Clone)]
pub struct ColdConnect {
    pub wall_ms: f64,
    /// `Connection::costs.planning_ms` (wall, reported by the server).
    pub planning_ms: f64,
    /// `Connection::ready_at` minus the virtual time of the call.
    pub virtual_ms: f64,
    /// The 2×512 B lookup exchange's share of `virtual_ms`.
    pub lookup_virtual_ms: f64,
    pub transfer_virtual_ms: f64,
    pub startup_virtual_ms: f64,
    pub created: u64,
    pub reused: u64,
    pub bytes_shipped: u64,
    pub stats: PlanStats,
}

/// Self-healing observations of one repetition (`crash_heal` only).
#[derive(Debug, Clone, Default)]
pub struct HealRecord {
    pub passes: u64,
    pub idle_pass_us: Vec<f64>,
    /// Wall ms of passes that re-planned at least one connection.
    pub replan_pass_ms: Vec<f64>,
    /// `costs.planning_ms` of every redeployed connection.
    pub repair_plan_ms: Vec<f64>,
    pub replans: u64,
    pub infeasible: u64,
    pub abandoned: u64,
    pub chains_reused: u64,
    pub chains_resolved: u64,
    /// Fault events that touched at least one managed connection.
    pub incidents: u64,
    pub detect_virtual_ms: Vec<f64>,
    pub redeploy_virtual_ms: Vec<f64>,
    pub recovery_virtual_ms: Vec<f64>,
    pub faults_applied: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall seconds of the workload's main timed phases.
    pub wall_s: f64,
    pub cold: Vec<ColdConnect>,
    pub warmup_connects: u64,
    pub settle_connects: u64,
    pub repeat_connects: u64,
    pub repeat_wall_s: f64,
    /// Per-call wall µs of the repeat phase.
    pub repeat_us: Vec<f64>,
    pub connects: u64,
    pub cache_hits: u64,
    pub run_wall_s: f64,
    pub events: u64,
    pub messages: u64,
    pub send_virtual_ms: (f64, f64),
    pub receive_virtual_ms: (f64, f64),
    pub sends: u64,
    pub receives: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub ops_lost: u64,
    pub ops_retried: u64,
    pub flushes: u64,
    /// Messages delivered into the primary's store (the mail workloads
    /// subtract the sends that reached it directly, leaving flushes).
    pub flushed_messages: u64,
    /// Absorbed sends still waiting in view servers' batches at the end.
    pub unflushed_messages: u64,
    pub stale_pulls: u64,
    pub live_instances: u64,
    pub heal: HealRecord,
    pub input_digest: u64,
    pub state_digest: u64,
    /// Correctness-gate violations; empty when the outputs are correct.
    pub violations: Vec<String>,
}

pub type Metrics = BTreeMap<&'static str, f64>;

fn pooled<'a>(reps: &'a [Rep], f: impl Fn(&'a Rep) -> Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(f).collect()
}

/// A quantile over one repetition's cold connects.
fn cold_quantile(rep: &Rep, f: impl Fn(&ColdConnect) -> f64, q: f64) -> f64 {
    quantile(&rep.cold.iter().map(f).collect::<Vec<_>>(), q)
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end metrics from untraced repetitions.
pub fn end_to_end(reps: &[Rep]) -> Metrics {
    let mut m = Metrics::new();
    m.insert("setup_s", med(reps, |r| r.setup_s));
    m.insert("wall_s", med(reps, |r| r.wall_s));
    m.insert(
        "cold_connect_wall_ms_p50",
        med(reps, |r| cold_quantile(r, |c| c.wall_ms, 0.5)),
    );
    m.insert(
        "repeat_connects_per_s",
        med(reps, |r| ratio(r.repeat_connects as f64, r.repeat_wall_s)),
    );
    m
}

/// Per-layer metrics from the traced repetitions; `untraced` are the
/// repetitions interleaved with them (for `trace.overhead_ratio`) and
/// `probes` the isolated layer probes.
pub fn per_layer(traced: &[Rep], untraced: &[Rep], probes: &Metrics) -> Metrics {
    let first = &traced[0];
    let cold = &first.cold;
    let cold_f = |f: fn(&ColdConnect) -> f64| cold.iter().map(f).collect::<Vec<_>>();
    let cold_sum = |f: fn(&ColdConnect) -> u64| cold.iter().map(f).sum::<u64>() as f64;
    let cold_q = |f: fn(&ColdConnect) -> f64, q: f64| med(traced, |r| cold_quantile(r, f, q));
    let heal = &first.heal;
    let mut m = probes.clone();

    // Client-visible metrics that only some workloads exercise.
    m.insert("cold_connect_wall_ms_p90", cold_q(|c| c.wall_ms, 0.9));
    m.insert(
        "sim_events_per_s",
        med(traced, |r| ratio(r.events as f64, r.run_wall_s)),
    );
    m.insert(
        "heal_wall_ms_p50",
        quantile(&pooled(traced, |r| r.heal.replan_pass_ms.clone()), 0.5),
    );
    m.insert(
        "connect_virtual_ms_p50",
        quantile(&cold_f(|c| c.virtual_ms), 0.5),
    );
    m.insert("send_virtual_ms_p50", first.send_virtual_ms.0);
    m.insert("send_virtual_ms_p99", first.send_virtual_ms.1);
    m.insert("receive_virtual_ms_p50", first.receive_virtual_ms.0);
    m.insert("receive_virtual_ms_p99", first.receive_virtual_ms.1);
    m.insert(
        "recovery_virtual_ms_p50",
        quantile(&heal.recovery_virtual_ms, 0.5),
    );
    m.insert(
        "recovery_virtual_ms_max",
        quantile(&heal.recovery_virtual_ms, 1.0),
    );
    m.insert(
        "ops_failed_ratio",
        ratio(first.ops_failed as f64, first.ops_attempted as f64),
    );

    m.insert("sim.fault.events_applied", heal.faults_applied as f64);
    m.insert(
        "net.scoped_routes.rows_built",
        cold_sum(|c| c.stats.route_rows_built),
    );

    m.insert("planner.plan_wall_ms_p50", cold_q(|c| c.planning_ms, 0.5));
    m.insert("planner.plan_wall_ms_p90", cold_q(|c| c.planning_ms, 0.9));
    m.insert("planner.work_units", cold_sum(|c| c.stats.work_units()));
    m.insert(
        "planner.mappings_evaluated",
        cold_sum(|c| c.stats.mappings_evaluated),
    );
    m.insert("planner.bound_prunes", cold_sum(|c| c.stats.bound_prunes));
    let segments = cold_sum(|c| u64::from(c.stats.hier_segments));
    let memo_hits = cold_sum(|c| u64::from(c.stats.hier_memo_hits));
    m.insert("planner.hier_segments", segments);
    m.insert(
        "planner.hier_memo_hit_ratio",
        ratio(memo_hits, memo_hits + segments),
    );
    m.insert(
        "planner.repair_wall_ms_p50",
        quantile(&pooled(traced, |r| r.heal.repair_plan_ms.clone()), 0.5),
    );
    m.insert(
        "planner.repair_chains_reused_ratio",
        ratio(
            heal.chains_reused as f64,
            (heal.chains_reused + heal.chains_resolved) as f64,
        ),
    );

    m.insert(
        "lookup.virtual_ms",
        quantile(&cold_f(|c| c.lookup_virtual_ms), 0.5),
    );

    m.insert(
        "server.connect_self_ms_p50",
        cold_q(|c| c.wall_ms - c.planning_ms, 0.5),
    );
    m.insert(
        "server.repeat_connect_us_p50",
        quantile(&pooled(traced, |r| r.repeat_us.clone()), 0.5),
    );
    m.insert(
        "server.plan_cache_hit_ratio",
        ratio(first.cache_hits as f64, first.connects as f64),
    );
    m.insert("server.settle_connects", first.settle_connects as f64);
    m.insert("server.live_instances", first.live_instances as f64);

    m.insert("deploy.created", cold_sum(|c| c.created));
    m.insert("deploy.reused", cold_sum(|c| c.reused));
    m.insert("deploy.bytes_shipped", cold_sum(|c| c.bytes_shipped));
    m.insert(
        "deploy.transfer_virtual_ms_p50",
        quantile(&cold_f(|c| c.transfer_virtual_ms), 0.5),
    );
    m.insert(
        "deploy.startup_virtual_ms",
        quantile(&cold_f(|c| c.startup_virtual_ms), 1.0),
    );

    m.insert("world.run_wall_s", med(traced, |r| r.run_wall_s));
    m.insert("world.events_processed", first.events as f64);
    m.insert("world.messages_sent", first.messages as f64);
    m.insert(
        "world.wall_ns_per_event",
        med(traced, |r| ratio(r.run_wall_s * 1e9, r.events as f64)),
    );
    m.insert("world.ops_retried", first.ops_retried as f64);
    m.insert("world.ops_lost", first.ops_lost as f64);

    m.insert("coherence.flushes", first.flushes as f64);
    m.insert(
        "coherence.flush_batch_mean",
        ratio(first.flushed_messages as f64, first.flushes as f64),
    );
    m.insert(
        "coherence.stale_pull_ratio",
        ratio(first.stale_pulls as f64, first.receives as f64),
    );

    m.insert("heal.passes", heal.passes as f64);
    m.insert(
        "heal.idle_pass_wall_us_p50",
        quantile(&pooled(traced, |r| r.heal.idle_pass_us.clone()), 0.5),
    );
    m.insert("heal.replans", heal.replans as f64);
    m.insert(
        "heal.passes_per_incident",
        ratio(heal.passes as f64, heal.incidents as f64),
    );
    m.insert(
        "heal.detect_virtual_ms_p50",
        quantile(&heal.detect_virtual_ms, 0.5),
    );
    m.insert(
        "heal.redeploy_virtual_ms_p50",
        quantile(&heal.redeploy_virtual_ms, 0.5),
    );
    m.insert("heal.infeasible", heal.infeasible as f64);
    m.insert("heal.abandoned", heal.abandoned as f64);

    m.insert(
        "trace.overhead_ratio",
        ratio(med(traced, |r| r.wall_s), med(untraced, |r| r.wall_s)),
    );
    m
}
