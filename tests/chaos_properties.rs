//! Seeded fault-injection properties over the mail case study:
//!
//! * any single node crash leaves every managed connection either
//!   automatically recovered (driver finishes) or cleanly abandoned
//!   (the client's own host died) — never silently hung;
//! * any single link failure is survived by every connection;
//! * any correlated fault domain — a whole site crashing, or every WAN
//!   leg of a site's gateway severed at once — leaves every connection
//!   served-degraded, recovered, or cleanly abandoned, and the merge
//!   reconciles the degraded chains;
//! * two chaos-bench (and partition-bench) runs with the same seed
//!   produce byte-identical artifacts (the determinism contracts
//!   behind `BENCH_chaos.json` and `BENCH_partition.json`).

use partitionable_services::core::Framework;
use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::workload::{ClusterConfig, ClusterDriver};
use partitionable_services::mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use partitionable_services::net::casestudy::{default_case_study, NEW_YORK, SAN_DIEGO, SEATTLE};
use partitionable_services::net::{LinkId, NodeId};
use partitionable_services::planner::ServiceRequest;
use partitionable_services::sim::{FaultPlan, SimDuration, SimTime};
use partitionable_services::smock::{
    CoherencePolicy, InstanceId, LeaseConfig, RetryPolicy, ServiceRegistration,
};
use partitionable_services::spec::Behavior;
use ps_bench::chaos::{run_chaos, ChaosBenchConfig};
use ps_bench::partition::{run_partition, PartitionBenchConfig};
use ps_bench::Mode;

enum Fault {
    Crash(NodeId),
    LinkDown(LinkId),
    /// Correlated: every WAN leg of `site`'s gateway goes down at the
    /// fault time and comes back at `RESTORE_AT_NS`.
    WanLegs(&'static str),
    /// Correlated: every host of `site` crashes at the fault time and
    /// restarts at `RESTORE_AT_NS`.
    SiteCrash(&'static str),
}

const FAULT_AT_NS: u64 = 20_000_000;
const RESTORE_AT_NS: u64 = 10_000_000_000;

struct ScenarioEnd {
    sd_abandoned: bool,
    sea_abandoned: bool,
    sd_done: bool,
    sea_done: bool,
    sd_degraded: bool,
    sea_degraded: bool,
    sd_reconciled: bool,
    sea_reconciled: bool,
}

/// Runs the two-client mail workload under one injected fault, healing
/// every 500 ms of virtual time, then drains the world completely.
fn run_fault_scenario(fault: &Fault, seed: u64) -> ScenarioEnd {
    let cs = default_case_study();
    let mut fw = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(5),
        CoherencePolicy::CountLimit(50),
    );
    fw.register_service(ServiceRegistration::new(mail_spec()).home_node(cs.mail_server));
    fw.install_primary("mail", MAIL_SERVER, cs.mail_server)
        .unwrap();
    fw.world.enable_retry(RetryPolicy::default());
    fw.world.enable_leases(LeaseConfig::default());
    fw.world.set_fault_seed(seed);

    let connect = |fw: &mut Framework, node: NodeId, trust: i64| {
        let request = ServiceRequest::new(CLIENT_INTERFACE, node)
            .rate(10.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        let conn = fw.connect("mail", &request).unwrap();
        let root = conn.root;
        let handle = fw.manage("mail", request, conn);
        (root, handle)
    };
    let (sd_root, sd_handle) = connect(&mut fw, cs.sd_client, 4);
    let (sea_root, sea_handle) = connect(&mut fw, cs.seattle_client, 1);

    let spawn_driver = |fw: &mut Framework, node: NodeId, root: InstanceId, base: u64| {
        let driver = ClusterDriver::new(ClusterConfig {
            sends: 30,
            receives: 3,
            ..ClusterConfig::paper("alice", "bob", base)
        });
        let id = fw.world.instantiate(
            "driver",
            node,
            Default::default(),
            Behavior::new(),
            Box::new(driver),
            SimTime::ZERO,
        );
        fw.world.wire(id, vec![root]);
        id
    };
    let sd_driver = spawn_driver(&mut fw, cs.sd_client, sd_root, 1 << 40);
    let sea_driver = spawn_driver(&mut fw, cs.seattle_client, sea_root, 2 << 40);

    let fault_at = SimTime::from_nanos(FAULT_AT_NS);
    let restore_at = SimTime::from_nanos(RESTORE_AT_NS);
    let mut plan = FaultPlan::new();
    match fault {
        Fault::Crash(node) => {
            plan.crash(fault_at, node.0);
        }
        Fault::LinkDown(link) => {
            plan.link_down(fault_at, link.0);
        }
        Fault::WanLegs(site) => {
            let domain = cs.wan_leg_domain(site);
            plan.domain_down(fault_at, &domain);
            plan.domain_up(restore_at, &domain);
        }
        Fault::SiteCrash(site) => {
            let domain = cs.site_fault_domain(site);
            plan.domain_down(fault_at, &domain);
            plan.domain_up(restore_at, &domain);
        }
    }
    fw.world.install_fault_plan(&plan);

    let mut sd_degraded = false;
    let mut sea_degraded = false;
    let mut sd_reconciled = false;
    let mut sea_reconciled = false;
    let mut note = |report: &partitionable_services::core::HealReport| {
        sd_degraded |= report.degraded.contains(&sd_handle);
        sea_degraded |= report.degraded.contains(&sea_handle);
        sd_reconciled |= report.reconciled.contains(&sd_handle);
        sea_reconciled |= report.reconciled.contains(&sea_handle);
    };
    let mut now = fault_at;
    let deadline = SimTime::from_nanos(60_000_000_000);
    while now < deadline {
        now += SimDuration::from_millis(500);
        fw.run_until(now);
        note(&fw.heal());
    }
    fw.run();
    note(&fw.heal());

    let done = |fw: &mut Framework, id: InstanceId| {
        fw.world
            .logic_mut(id)
            .as_any()
            .and_then(|a| a.downcast_ref::<ClusterDriver>())
            .is_some_and(|d| d.is_done())
    };
    ScenarioEnd {
        sd_abandoned: fw.managed_connection(sd_handle).is_none(),
        sea_abandoned: fw.managed_connection(sea_handle).is_none(),
        sd_done: done(&mut fw, sd_driver),
        sea_done: done(&mut fw, sea_driver),
        sd_degraded,
        sea_degraded,
        sd_reconciled,
        sea_reconciled,
    }
}

#[test]
fn any_single_node_crash_recovers_or_cleanly_abandons() {
    let cs = default_case_study();
    for index in 0..cs.network.node_count() {
        let node = NodeId(index as u32);
        let end = run_fault_scenario(&Fault::Crash(node), 17 + index as u64);

        // A connection is abandoned exactly when its own client host
        // died; every other connection must finish its workload.
        assert_eq!(
            end.sd_abandoned,
            node == cs.sd_client,
            "SD abandonment after crashing node {node}"
        );
        assert_eq!(
            end.sea_abandoned,
            node == cs.seattle_client,
            "Seattle abandonment after crashing node {node}"
        );
        if node != cs.sd_client {
            assert!(end.sd_done, "SD workload hung after crashing node {node}");
        }
        if node != cs.seattle_client {
            assert!(
                end.sea_done,
                "Seattle workload hung after crashing node {node}"
            );
        }
    }
}

#[test]
fn any_single_link_failure_is_survived() {
    let cs = default_case_study();
    for link in cs.network.links() {
        let end = run_fault_scenario(&Fault::LinkDown(link.id), 170 + u64::from(link.id.0));
        assert!(!end.sd_abandoned, "SD abandoned after link {:?}", link.id);
        assert!(
            !end.sea_abandoned,
            "Seattle abandoned after link {:?}",
            link.id
        );
        assert!(
            end.sd_done,
            "SD workload hung after link {:?} failed",
            link.id
        );
        assert!(
            end.sea_done,
            "Seattle workload hung after link {:?} failed",
            link.id
        );
    }
}

#[test]
fn severing_any_sites_wan_legs_degrades_then_reconciles() {
    for (index, site) in [NEW_YORK, SAN_DIEGO, SEATTLE].into_iter().enumerate() {
        let end = run_fault_scenario(&Fault::WanLegs(site), 300 + index as u64);

        // No client host dies: nothing may be abandoned, and every
        // workload must finish once the legs are restored.
        assert!(!end.sd_abandoned, "SD abandoned after severing {site}");
        assert!(
            !end.sea_abandoned,
            "Seattle abandoned after severing {site}"
        );
        assert!(end.sd_done, "SD workload hung after severing {site}");
        assert!(end.sea_done, "Seattle workload hung after severing {site}");

        // The clients cut off from the pinned New York mail server are
        // served on degraded chains during the split, and reconciled
        // after the restore. (Severing a *client* site's legs cuts that
        // client; severing New York's cuts both.)
        if site == NEW_YORK || site == SAN_DIEGO {
            assert!(end.sd_degraded, "SD not degraded after severing {site}");
            assert!(end.sd_reconciled, "SD not reconciled after severing {site}");
        }
        if site == NEW_YORK || site == SEATTLE {
            assert!(
                end.sea_degraded,
                "Seattle not degraded after severing {site}"
            );
            assert!(
                end.sea_reconciled,
                "Seattle not reconciled after severing {site}"
            );
        }
    }
}

#[test]
fn site_crashes_abandon_only_their_own_clients() {
    for (index, site) in [NEW_YORK, SAN_DIEGO, SEATTLE].into_iter().enumerate() {
        let end = run_fault_scenario(&Fault::SiteCrash(site), 400 + index as u64);
        match site {
            // The whole primary site dies — including the pinned mail
            // server. Both clients survive on degraded local chains and
            // reconcile once the site restarts and rejoins.
            NEW_YORK => {
                assert!(!end.sd_abandoned, "SD abandoned after {site} crash");
                assert!(!end.sea_abandoned, "Seattle abandoned after {site} crash");
                assert!(end.sd_degraded, "SD not degraded after {site} crash");
                assert!(end.sea_degraded, "Seattle not degraded after {site} crash");
                assert!(end.sd_reconciled, "SD not reconciled after {site} crash");
                assert!(
                    end.sea_reconciled,
                    "Seattle not reconciled after {site} crash"
                );
                assert!(end.sd_done, "SD workload hung after {site} crash");
                assert!(end.sea_done, "Seattle workload hung after {site} crash");
            }
            // A client site crashing abandons exactly its own
            // connection; the other client must finish.
            SAN_DIEGO => {
                assert!(end.sd_abandoned, "SD should be abandoned with its site");
                assert!(!end.sea_abandoned, "Seattle abandoned after {site} crash");
                assert!(end.sea_done, "Seattle workload hung after {site} crash");
            }
            SEATTLE => {
                assert!(
                    end.sea_abandoned,
                    "Seattle should be abandoned with its site"
                );
                assert!(!end.sd_abandoned, "SD abandoned after {site} crash");
                assert!(end.sd_done, "SD workload hung after {site} crash");
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn same_seed_partition_runs_produce_identical_artifacts() {
    let config = PartitionBenchConfig {
        seed: 23,
        split_at: SimTime::from_nanos(50_000_000),
        restore_at: SimTime::from_nanos(5_000_000_000),
        seattle_ops: (60, 5),
        sd_ops: (60, 5),
    };
    let (tracer_a, sink_a) = partitionable_services::trace::Tracer::memory();
    let (tracer_b, sink_b) = partitionable_services::trace::Tracer::memory();
    let a = run_partition(&config, &tracer_a);
    let b = run_partition(&config, &tracer_b);
    assert_eq!(
        a.record().to_json(Mode::Measured),
        b.record().to_json(Mode::Measured),
        "BENCH_partition.json must be byte-identical for one seed"
    );
    assert_eq!(
        sink_a.to_jsonl(),
        sink_b.to_jsonl(),
        "trace JSONL must be byte-identical for one seed"
    );

    // A different seed perturbs the workload draws.
    let other = PartitionBenchConfig { seed: 24, ..config };
    let c = run_partition(&other, &partitionable_services::trace::Tracer::disabled());
    assert_ne!(
        a.record().to_json(Mode::Measured),
        c.record().to_json(Mode::Measured)
    );
}

#[test]
fn same_seed_chaos_runs_produce_identical_artifacts() {
    let config = ChaosBenchConfig {
        seed: 23,
        crash_at: SimTime::from_nanos(50_000_000),
        seattle_ops: (60, 5),
        sd_ops: (60, 5),
        ..ChaosBenchConfig::default()
    };
    let (tracer_a, sink_a) = partitionable_services::trace::Tracer::memory();
    let (tracer_b, sink_b) = partitionable_services::trace::Tracer::memory();
    let a = run_chaos(&config, &tracer_a);
    let b = run_chaos(&config, &tracer_b);
    assert_eq!(
        a.record().to_json(Mode::Measured),
        b.record().to_json(Mode::Measured),
        "BENCH_chaos.json must be byte-identical for one seed"
    );
    assert_eq!(
        sink_a.to_jsonl(),
        sink_b.to_jsonl(),
        "trace JSONL must be byte-identical for one seed"
    );

    // A different seed perturbs the workload and fault draws.
    let other = ChaosBenchConfig { seed: 24, ..config };
    let c = run_chaos(&other, &partitionable_services::trace::Tracer::disabled());
    assert_ne!(
        a.record().to_json(Mode::Measured),
        c.record().to_json(Mode::Measured)
    );
}
