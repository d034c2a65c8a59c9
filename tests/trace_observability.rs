//! Observability integration: monitor change detection and re-planning
//! decisions must be mirrored faithfully in the trace stream — every
//! emitted event corresponds to a decision the code actually took, with
//! matching fields, sim-time stamps, and registry counters.

use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::{mail_spec, mail_translator};
use partitionable_services::monitor::{NetworkMonitor, ReplanDecision, Replanner};
use partitionable_services::net::casestudy::default_case_study;
use partitionable_services::planner::{Planner, PlannerConfig, ServiceRequest};
use partitionable_services::sim::{SimDuration, SimTime};
use partitionable_services::trace::{EventKind, Tracer};

fn sd_request(cs: &partitionable_services::net::CaseStudy) -> ServiceRequest {
    ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(2.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64)
}

#[test]
fn monitor_changes_emit_matching_trace_events() {
    let cs = default_case_study();
    let (tracer, sink) = Tracer::memory();
    let mut monitor = NetworkMonitor::new(cs.network.clone());
    monitor.set_tracer(tracer.clone());

    let mut changed = cs.network.clone();
    let wan = changed
        .link_between(cs.ny_gateway, cs.sd_gateway)
        .unwrap()
        .id;
    changed.link_mut(wan).latency = SimDuration::from_millis(600);
    changed.link_mut(wan).bandwidth_bps = 4e6;
    changed
        .node_mut(cs.seattle_client)
        .credentials
        .set("TrustRating", 5i64);

    let now = SimTime::from_nanos(7_000_000);
    let changes = monitor.observe_at(now, &changed);
    assert_eq!(changes.len(), 3);

    let events = sink.events();
    let change_events: Vec<_> = events
        .iter()
        .filter(|e| e.target == "monitor" && e.name == "change")
        .collect();
    // One event per detected change, all stamped at the observation time.
    assert_eq!(change_events.len(), changes.len());
    assert!(change_events.iter().all(|e| e.kind == EventKind::Instant));
    assert!(change_events.iter().all(|e| e.sim_ns == now.as_nanos()));
    let kinds: Vec<&str> = change_events
        .iter()
        .map(|e| e.field_str("kind").unwrap())
        .collect();
    assert_eq!(
        kinds,
        vec!["link_latency", "link_bandwidth", "node_credentials"]
    );
    assert_eq!(
        change_events[0].field_u64("subject"),
        Some(wan.0 as u64),
        "latency event names the WAN link"
    );
    let registry = tracer.registry().unwrap();
    assert_eq!(registry.counter("monitor.changes"), 3);

    // Baseline advanced: a quiet re-observation emits nothing new.
    assert!(monitor.observe_at(now, &changed).is_empty());
    assert_eq!(sink.events().len(), events.len());
    assert_eq!(registry.counter("monitor.changes"), 3);
}

#[test]
fn replanner_keep_decision_is_traced() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let request = sd_request(&cs);
    let plan = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();

    // Mild WAN degradation: the deployed plan stays within the default
    // 1.25x degradation threshold.
    let mut degraded = cs.network.clone();
    let wan = degraded
        .link_between(cs.ny_gateway, cs.sd_gateway)
        .unwrap()
        .id;
    degraded.link_mut(wan).latency = SimDuration::from_millis(450);

    let (tracer, sink) = Tracer::memory();
    let mut replanner = Replanner::new(planner);
    replanner.set_tracer(tracer.clone());
    let now = SimTime::from_nanos(42);
    let decision = replanner.evaluate(now, &degraded, &mail_translator(), &request, &plan);
    assert!(matches!(decision, ReplanDecision::Keep));

    let events = sink.events();
    let replans: Vec<_> = events
        .iter()
        .filter(|e| e.target == "monitor" && e.name == "replan")
        .collect();
    assert_eq!(replans.len(), 1);
    assert_eq!(replans[0].field_str("decision"), Some("keep"));
    assert_eq!(replans[0].sim_ns, now.as_nanos());
    let registry = tracer.registry().unwrap();
    assert_eq!(registry.counter("replan.keep"), 1);
    assert_eq!(registry.counter("replan.redeploy"), 0);
}

#[test]
fn replanner_redeploy_decision_traces_the_delta() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let request = sd_request(&cs);
    let plan = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();

    // Raise San Diego's trust out of the view server's (1,3) window: the
    // deployed cache becomes illegal and a redeploy is forced.
    let mut changed = cs.network.clone();
    for id in changed.node_ids().collect::<Vec<_>>() {
        if changed.node(id).site == "SanDiego" {
            changed.node_mut(id).credentials.set("TrustRating", 5i64);
        }
    }

    let (tracer, sink) = Tracer::memory();
    let mut replanner = Replanner::new(planner);
    replanner.set_tracer(tracer.clone());
    let now = SimTime::from_nanos(99);
    let decision = replanner.evaluate(now, &changed, &mail_translator(), &request, &plan);
    let delta = match &decision {
        ReplanDecision::Redeploy { delta, .. } => delta,
        other => panic!("expected redeploy, got {other:?}"),
    };

    let events = sink.events();
    let replans: Vec<_> = events
        .iter()
        .filter(|e| e.target == "monitor" && e.name == "replan")
        .collect();
    assert_eq!(replans.len(), 1);
    let event = replans[0];
    // The event's delta fields mirror the decision exactly.
    assert_eq!(event.field_str("decision"), Some("redeploy"));
    assert_eq!(event.field_u64("added"), Some(delta.added.len() as u64));
    assert_eq!(event.field_u64("kept"), Some(delta.kept.len() as u64));
    assert_eq!(event.field_u64("removed"), Some(delta.removed.len() as u64));
    assert!(delta
        .removed
        .iter()
        .any(|p| p.component == VIEW_MAIL_SERVER));
    assert_eq!(tracer.registry().unwrap().counter("replan.redeploy"), 1);
}

#[test]
fn an_unchanged_network_keeps_the_traced_plan() {
    let cs = default_case_study();
    let request = sd_request(&cs);
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let plan = planner
        .plan(&cs.network, &mail_translator(), &request)
        .unwrap();

    // Unchanged network: the old plan IS the fresh optimum, well within
    // the replanner's 1.25x degradation threshold, so it is kept.
    let (tracer, sink) = Tracer::memory();
    let mut replanner = Replanner::new(planner);
    replanner.set_tracer(tracer.clone());
    let decision = replanner.evaluate(
        SimTime::ZERO,
        &cs.network,
        &mail_translator(),
        &request,
        &plan,
    );
    let events = sink.events();
    let event = events
        .iter()
        .find(|e| e.target == "monitor" && e.name == "replan")
        .expect("a replan event");
    assert!(matches!(decision, ReplanDecision::Keep));
    assert_eq!(event.field_str("decision"), Some("keep"));
    assert_eq!(tracer.registry().unwrap().counter("replan.keep"), 1);
}
