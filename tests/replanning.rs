//! Monitoring + re-planning integration (Section 6, future work #1).

use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::{mail_spec, mail_translator};
use partitionable_services::monitor::{
    affected_edges, plan_delta, NetworkMonitor, ReplanDecision, Replanner,
};
use partitionable_services::net::casestudy::default_case_study;
use partitionable_services::planner::{Planner, PlannerConfig, ServiceRequest};
use partitionable_services::sim::{SimDuration, SimTime};

fn sd_request(cs: &partitionable_services::net::CaseStudy) -> ServiceRequest {
    ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(2.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64)
}

#[test]
fn small_changes_keep_the_plan() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let request = sd_request(&cs);
    let plan = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();

    let mut degraded = cs.network.clone();
    let wan = degraded
        .link_between(cs.ny_gateway, cs.sd_gateway)
        .unwrap()
        .id;
    degraded.link_mut(wan).latency = SimDuration::from_millis(450);

    let replanner = Replanner::new(planner);
    let decision = replanner.evaluate(
        SimTime::ZERO,
        &degraded,
        &mail_translator(),
        &request,
        &plan,
    );
    assert!(matches!(decision, ReplanDecision::Keep));
}

#[test]
fn credential_loss_invalidates_and_redeploys() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let request = sd_request(&cs);
    let plan = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();

    // The client's own node keeps its trust, but the rest of San Diego
    // drops to partner level: the cache must stay on the client node, so
    // nothing changes there — instead degrade only the node hosting the
    // cache... which is the client node. So degrade everything else and
    // raise the client node's trust out of the view's window instead.
    let mut changed = cs.network.clone();
    for id in changed.node_ids().collect::<Vec<_>>() {
        if changed.node(id).site == "SanDiego" {
            changed.node_mut(id).credentials.set("TrustRating", 5i64);
        }
    }
    // Trust 5 is outside the ViewMailServer's (1,3) installation window:
    // the deployed cache is no longer legal anywhere in San Diego.
    let replanner = Replanner::new(planner);
    let decision = replanner.evaluate(SimTime::ZERO, &changed, &mail_translator(), &request, &plan);
    match decision {
        ReplanDecision::Redeploy {
            plan: new_plan,
            delta,
        } => {
            assert!(
                new_plan.placement_of(VIEW_MAIL_SERVER).is_none(),
                "no trust-1..3 node remains in San Diego"
            );
            assert!(!delta.removed.is_empty());
            assert!(delta
                .removed
                .iter()
                .any(|p| p.component == VIEW_MAIL_SERVER));
        }
        other => panic!("expected redeploy, got {other:?}"),
    }
}

#[test]
fn monitor_diffs_drive_edge_attribution() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let request = sd_request(&cs);
    let plan = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();

    let mut monitor = NetworkMonitor::new(cs.network.clone());
    let mut changed = cs.network.clone();
    // Touch the Seattle-SanDiego link: the San Diego plan never uses it.
    let side = changed
        .link_between(cs.seattle_gateway, cs.sd_gateway)
        .unwrap()
        .id;
    changed.link_mut(side).latency = SimDuration::from_millis(900);
    let changes = monitor.observe(&changed);
    assert_eq!(changes.len(), 1);
    assert!(affected_edges(&plan, &changes).is_empty());

    // Touch the NY-SD link: the Encryptor->Decryptor edge rides it.
    let mut changed2 = changed.clone();
    let wan = changed2
        .link_between(cs.ny_gateway, cs.sd_gateway)
        .unwrap()
        .id;
    changed2.link_mut(wan).bandwidth_bps = 4e6;
    let changes = monitor.observe(&changed2);
    let hit = affected_edges(&plan, &changes);
    assert_eq!(hit.len(), 1);
    let edge = &plan.edges[hit[0]];
    assert_eq!(plan.placements[edge.from].component, ENCRYPTOR);
    assert_eq!(plan.placements[edge.to].component, DECRYPTOR);
}

#[test]
fn plan_delta_classifies_placements() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let request = sd_request(&cs);
    let a = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();
    // Same request, same network: delta must be empty except kept.
    let b = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();
    let delta = plan_delta(&a, &b);
    assert_eq!(delta.kept.len(), a.placements.len());
    assert!(delta.added.is_empty());
    assert!(delta.removed.is_empty());
}

#[test]
fn framework_reconnect_redeploys_and_retires() {
    use partitionable_services::core::Framework;
    use partitionable_services::mail::{register_mail_components, Keyring};
    use partitionable_services::smock::{CoherencePolicy, ServiceRegistration};

    let cs = default_case_study();
    let mut fw = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(3),
        CoherencePolicy::None,
    );
    fw.register_service(ServiceRegistration::new(mail_spec()));
    fw.install_primary("mail", MAIL_SERVER, cs.mail_server)
        .unwrap();

    let request = sd_request(&cs);
    let old = fw.connect("mail", &request).unwrap();
    assert!(old.plan.placement_of(VIEW_MAIL_SERVER).is_some());

    // The branch is promoted to full trust: the request environment
    // raises TrustLevel to 5 everywhere, pushing every node out of the
    // view's (1,3) installation window — reconnect must drop the cache
    // and retire its chain.
    let trusted_request = request
        .clone()
        .env(partitionable_services::spec::Environment::new().with("TrustLevel", 5i64));
    let (new, retired) = fw.reconnect("mail", &trusted_request, &old).unwrap();
    assert!(
        new.plan.placement_of(VIEW_MAIL_SERVER).is_none(),
        "no cache under the raised trust environment: {}",
        new.plan
    );
    assert!(!retired.is_empty(), "the old cache chain was retired");
    for id in &retired {
        assert!(fw.world.is_retired(*id));
    }
    // The primary survived.
    let primary = fw
        .world
        .find_instance(MAIL_SERVER, cs.mail_server, &Default::default())
        .unwrap();
    assert!(!fw.world.is_retired(primary));
}

#[test]
fn retired_view_flushes_unpropagated_state_upstream() {
    use partitionable_services::core::Framework;
    use partitionable_services::mail::components::MailServerLogic;
    use partitionable_services::mail::workload::{ClusterConfig, ClusterDriver};
    use partitionable_services::mail::{register_mail_components, Keyring};
    use partitionable_services::smock::{CoherencePolicy, ServiceRegistration};
    use partitionable_services::spec::Behavior;

    let cs = default_case_study();
    let mut fw = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    // Policy None: nothing propagates during normal operation.
    register_mail_components(
        &mut fw.server.registry,
        Keyring::new(9),
        CoherencePolicy::None,
    );
    fw.register_service(ServiceRegistration::new(mail_spec()));
    let primary = fw
        .install_primary("mail", MAIL_SERVER, cs.mail_server)
        .unwrap();

    let request = sd_request(&cs);
    let conn = fw.connect("mail", &request).unwrap();
    let driver = ClusterDriver::new(ClusterConfig {
        sends: 12,
        receives: 0,
        ..ClusterConfig::paper("alice", "bob", 1 << 40)
    });
    let id = fw.world.instantiate(
        "driver",
        cs.sd_client,
        Default::default(),
        Behavior::new(),
        Box::new(driver),
        conn.ready_at,
    );
    fw.world.wire(id, vec![conn.root]);
    fw.run();

    // Redeploy without the cache (trust raised): the view is retired and
    // must flush its 12 absorbed messages to the primary on the way out.
    let trusted = request
        .clone()
        .env(partitionable_services::spec::Environment::new().with("TrustLevel", 5i64));
    let (_, retired) = fw.reconnect("mail", &trusted, &conn).unwrap();
    assert!(!retired.is_empty());
    fw.run();

    let server = fw
        .world
        .logic_mut(primary)
        .as_any()
        .unwrap()
        .downcast_ref::<MailServerLogic>()
        .unwrap();
    assert_eq!(
        server.store().delivered(),
        12,
        "no mail was stranded in the retired cache"
    );
}
