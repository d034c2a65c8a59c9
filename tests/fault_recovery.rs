//! Fault handling across the stack: a host crash is *detected* by
//! lease expiry, the healer quarantines the node and automatically
//! re-plans the surviving connections (no manual `connect`), and the
//! workload completes on the replacement chain. A second test crashes a
//! host with leases disabled, where detection is immediate, and
//! reconnects around it.

use partitionable_services::core::Framework;
use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::workload::{ClusterConfig, ClusterDriver};
use partitionable_services::mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use partitionable_services::net::casestudy::default_case_study;
use partitionable_services::planner::ServiceRequest;
use partitionable_services::sim::{FaultPlan, SimTime};
use partitionable_services::smock::{
    CoherencePolicy, LeaseConfig, LivenessKind, RetryPolicy, ServiceRegistration,
};
use partitionable_services::spec::Behavior;

fn mail_framework() -> (partitionable_services::net::CaseStudy, Framework) {
    let cs = default_case_study();
    let mut fw = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(31),
        CoherencePolicy::CountLimit(5),
    );
    fw.register_service(ServiceRegistration::new(mail_spec()).home_node(cs.mail_server));
    fw.install_primary("mail", MAIL_SERVER, cs.mail_server)
        .unwrap();
    (cs, fw)
}

fn spawn_driver(
    fw: &mut Framework,
    node: partitionable_services::net::NodeId,
    root: partitionable_services::smock::InstanceId,
    id_base: u64,
    at: SimTime,
) -> partitionable_services::smock::InstanceId {
    let driver = ClusterDriver::new(ClusterConfig {
        sends: 30,
        receives: 3,
        ..ClusterConfig::paper("alice", "bob", id_base)
    });
    let id = fw.world.instantiate(
        "driver",
        node,
        Default::default(),
        Behavior::new(),
        Box::new(driver),
        at,
    );
    fw.world.wire(id, vec![root]);
    id
}

fn driver_done(fw: &mut Framework, id: partitionable_services::smock::InstanceId) -> bool {
    fw.world
        .logic_mut(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<ClusterDriver>())
        .is_some_and(|d| d.is_done())
}

/// The tentpole path: crash → lease expiry → `NodeDown` → quarantine →
/// automatic re-plan — zero manual `connect` calls after the fault.
#[test]
fn lease_detection_auto_heals_the_partner_connection() {
    let (cs, mut fw) = mail_framework();
    fw.world.enable_retry(RetryPolicy::default());
    fw.world.enable_leases(LeaseConfig::default());
    fw.world.set_fault_seed(9);

    // San Diego deploys the shared view chain; Seattle chains onto it.
    let sd_request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64);
    let sd_conn = fw.connect("mail", &sd_request).unwrap();
    let sd_handle = fw.manage("mail", sd_request, sd_conn);

    let sea_request = ServiceRequest::new(CLIENT_INTERFACE, cs.seattle_client)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 1i64);
    let sea_conn = fw.connect("mail", &sea_request).unwrap();
    let sea_root = sea_conn.root;
    let sea_uses_sd = sea_conn
        .plan
        .placements
        .iter()
        .any(|p| p.node == cs.sd_client);
    assert!(sea_uses_sd, "Seattle chains through the San Diego host");
    let sea_handle = fw.manage("mail", sea_request, sea_conn);

    let sea_driver = spawn_driver(&mut fw, cs.seattle_client, sea_root, 1 << 40, SimTime::ZERO);

    // The San Diego host crashes silently mid-workload.
    let crash_at = SimTime::from_nanos(100_000_000);
    let mut plan = FaultPlan::new();
    plan.crash(crash_at, cs.sd_client.0);
    fw.world.install_fault_plan(&plan);

    // Healing: one pass at each lease expiry, re-planning what it hit.
    let mut recovered = false;
    while let Some(report) = fw.heal_next(SimTime::from_nanos(60_000_000_000)) {
        recovered |= report.recovered.contains(&sea_handle);
    }

    // The crashed client's own connection is abandoned...
    assert!(fw.managed_connection(sd_handle).is_none());
    // ...the node was quarantined out of the planner's network view...
    assert!(!fw.world.network().node(cs.sd_client).up);
    // ...and Seattle was re-deployed off the dead host, automatically.
    assert!(recovered, "healer must re-deploy the Seattle connection");
    let healed = fw.managed_connection(sea_handle).expect("still managed");
    assert!(
        healed
            .plan
            .placements
            .iter()
            .all(|p| p.node != cs.sd_client),
        "replacement plan avoids the quarantined host"
    );
    assert!(
        driver_done(&mut fw, sea_driver),
        "the Seattle workload completes on the replacement chain"
    );
}

/// A crash without leases: `crash_node` retires the host's instances
/// and the liveness stream reports them at once, and a fresh connection
/// re-plans around the dead machine.
#[test]
fn an_unleased_crash_is_detected_at_once_and_replanned_around() {
    let (cs, mut fw) = mail_framework();

    let request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64);
    let conn = fw.connect("mail", &request).unwrap();
    let vms_node = conn.plan.placement_of(VIEW_MAIL_SERVER).unwrap().node;
    assert_eq!(vms_node, cs.sd_client, "cache colocates with the client");

    // Run a short workload, then the client's machine crashes (taking
    // the MailClient, cache, and encryptor with it).
    let id1 = spawn_driver(&mut fw, cs.sd_client, conn.root, 1 << 40, conn.ready_at);
    fw.run();
    assert!(driver_done(&mut fw, id1));

    let crashed_at = fw.world.now();
    let retired = fw.world.crash_node(vms_node);
    assert!(
        retired.len() >= 3,
        "client, cache, encryptor died: {retired:?}"
    );
    for id in &retired {
        assert!(fw.world.is_retired(*id));
    }
    // Without leases the crash is detected synchronously: every retired
    // instance and then the node itself, stamped with the crash time.
    let detected: Vec<_> = fw.world.take_liveness_events();
    assert_eq!(detected.len(), retired.len() + 1, "{detected:?}");
    assert!(detected.iter().all(|e| e.at == crashed_at));
    assert_eq!(
        detected.last().map(|e| e.kind),
        Some(LivenessKind::NodeDown { node: vms_node })
    );
    // The primary (other node) survived.
    let primary = fw
        .world
        .find_instance(MAIL_SERVER, cs.mail_server, &Default::default())
        .unwrap();
    assert!(!fw.world.is_retired(primary));

    // The user reconnects from a surviving branch machine: dead
    // instances are not attachable, so a fresh chain deploys there.
    let fallback = cs
        .network
        .site_nodes("SanDiego")
        .into_iter()
        .find(|&n| n != vms_node)
        .unwrap();
    let request2 = ServiceRequest::new(CLIENT_INTERFACE, fallback)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64);
    let conn2 = fw.connect("mail", &request2).unwrap();
    let new_vms = conn2.plan.placement_of(VIEW_MAIL_SERVER).unwrap();
    assert_ne!(new_vms.node, vms_node, "the dead host is not reused");
    assert!(conn2.deployment.created >= 3, "fresh chain deployed");

    // Service resumes: the new workload completes.
    let id2 = spawn_driver(&mut fw, fallback, conn2.root, 1 << 41, conn2.ready_at);
    fw.run();
    let d = fw
        .world
        .logic_mut(id2)
        .as_any()
        .unwrap()
        .downcast_ref::<ClusterDriver>()
        .unwrap();
    assert!(d.is_done());
    assert_eq!(d.denied, 0);
}

/// Suspect pinning: when a host's leases expire *staggered* (instances
/// granted at different times), the first `InstanceDown` verdict lands
/// while the node still looks up — its remaining expiries are in
/// flight. Redeploying a replacement chain onto that host would court
/// an immediate second failure, so the healer holds it suspect for one
/// detection window and down-weights it in the redeploy's solve. The
/// eventual `NodeDown` verdict supersedes the suspicion (quarantine
/// already excludes the host).
#[test]
fn half_expired_hosts_are_suspect_and_avoided_for_one_lease_window() {
    let (cs, mut fw) = mail_framework();
    let lease = LeaseConfig::default();
    fw.world.enable_retry(RetryPolicy::default());
    fw.world.enable_leases(lease);
    fw.world.set_fault_seed(7);

    // San Diego's chain deploys at t=0: its instances renew on the
    // epoch grid, so a crash at 3.0s leaves their last renewal at 3.0s
    // and their leases run until 5.0s.
    let sd_request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64);
    let sd_conn = fw.connect("mail", &sd_request).unwrap();
    let sd_handle = fw.manage("mail", sd_request, sd_conn);

    // Seattle chains onto it 300ms later: its *new* instance on the
    // San Diego host (the chained decryptor) renews on a grid offset
    // by 300ms, so after the same crash its lease expires at 4.8s —
    // 200ms before the host's other leases.
    fw.run_until(SimTime::from_nanos(300_000_000));
    let sea_request = ServiceRequest::new(CLIENT_INTERFACE, cs.seattle_client)
        .rate(10.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 1i64);
    let sea_conn = fw.connect("mail", &sea_request).unwrap();
    assert!(
        sea_conn
            .plan
            .placements
            .iter()
            .any(|p| p.node == cs.sd_client),
        "Seattle chains through the San Diego host"
    );
    let sea_handle = fw.manage("mail", sea_request, sea_conn);

    let crash_at = SimTime::from_nanos(3_000_000_000);
    let mut plan = FaultPlan::new();
    plan.crash(crash_at, cs.sd_client.0);
    fw.world.install_fault_plan(&plan);

    // Heal between the first expiry (~4.8s — grant times sit at each
    // deploy's ready time, so the exact grid offset is the code
    // transfer's) and the rest (5.0s): the detector has declared only
    // Seattle's decryptor dead, and the host still looks up.
    fw.run_until(SimTime::from_nanos(4_900_000_000));
    let report = fw.heal();
    assert!(
        report.quarantined.is_empty(),
        "no NodeDown verdict yet: {report:?}"
    );
    assert!(
        report.recovered.contains(&sea_handle),
        "the implicated connection redeploys immediately: {report:?}"
    );

    // The half-expired host is suspect until its *latest* reported
    // expiry plus one full detection window (each verdict refreshes
    // the clock — the host keeps failing leases)...
    let expiry = report
        .liveness
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                partitionable_services::smock::LivenessKind::InstanceDown { .. }
            )
        })
        .map(|e| e.at)
        .max()
        .expect("an InstanceDown verdict landed");
    assert!(expiry > crash_at && expiry < SimTime::from_nanos(5_000_000_000));
    assert_eq!(
        fw.suspected_hosts(),
        vec![(cs.sd_client, expiry + lease.max_detection_latency())]
    );
    // ...and the replacement chain was steered off it even though the
    // planner's network model still shows the node up.
    assert!(fw.world.network().node(cs.sd_client).up);
    let healed = fw.managed_connection(sea_handle).expect("still managed");
    assert!(
        healed
            .plan
            .placements
            .iter()
            .all(|p| p.node != cs.sd_client),
        "replacement avoids the suspect host: {:?}",
        healed.plan.placements
    );

    // The remaining leases expire at 5.0s: the NodeDown verdict
    // quarantines the host and supersedes the suspicion, and the
    // crashed client's own connection is abandoned.
    fw.run_until(SimTime::from_nanos(5_500_000_000));
    let report = fw.heal();
    assert_eq!(report.quarantined, vec![cs.sd_client]);
    assert!(report.abandoned.contains(&sd_handle), "{report:?}");
    assert!(fw.suspected_hosts().is_empty(), "NodeDown clears suspicion");
    assert!(!fw.world.network().node(cs.sd_client).up);
}
