//! The scale heal workload on a 100-router fabric: the lease detector
//! declares the crashed node down before the connection counts as
//! recovered, the managed plan the run ends with neither places a
//! component on the crashed node nor routes a linkage through it, and
//! the outcome is a function of the seed alone.

use ps_bench::scale::{run_heal_workload, scale_network, HealWorkloadOptions, HealWorkloadOutcome};
use ps_sim::SimDuration;
use ps_trace::{SamplerConfig, Tracer};

/// One run on the 100-router fabric with the sampler and lease-renewal
/// accounting on and 5 s of settling, wall time zeroed so outcomes
/// compare.
fn run(seed: u64) -> HealWorkloadOutcome {
    let (net, server, client) = scale_network(100, 7_100);
    let mut outcome = run_heal_workload(
        net,
        server,
        client,
        seed,
        &Tracer::disabled(),
        &HealWorkloadOptions {
            sampler: Some(SamplerConfig::default()),
            lease_renewal_bytes: 256,
            settle: Some(SimDuration::from_secs(5)),
            hier: false,
        },
    );
    outcome.wall_ms = 0.0;
    outcome
}

#[test]
fn the_crash_is_detected_before_recovery_and_the_final_plan_avoids_it() {
    let outcome = run(7_000);
    let victim = outcome.crashed;
    let detected = outcome.detected_ms.expect("leases detect the crash");
    let recovered = outcome.recovered_ms.expect("the connection recovers");
    assert!(
        detected < recovered,
        "detected at {detected} ms, recovered at {recovered} ms"
    );
    assert!(outcome.replans >= 1, "the healer must redeploy");

    let plan = outcome.plan.as_ref().expect("the connection stays managed");
    for placement in &plan.placements {
        assert_ne!(
            placement.node, victim,
            "{} still placed on the crashed node",
            placement.component
        );
    }
    for edge in &plan.edges {
        assert!(
            !edge.route.via.contains(&victim),
            "edge {} -> {} still routed through the crashed node",
            edge.from,
            edge.to
        );
    }
}

#[test]
fn same_seed_heal_workloads_return_equal_outcomes() {
    let a = run(7_000);
    assert!(!a.series.is_empty(), "the sampler is on");
    assert!(a.lease_renewal_bytes > 0, "renewals are accounted");
    assert_eq!(a, run(7_000));
}
