//! Section 6, future work #1: coping with changing network conditions.
//!
//! A Remos-style monitor watches the case-study network; when conditions
//! change (a WAN link degrades badly, a site loses trust) the replanner
//! revalidates the deployed plan and computes the incremental
//! redeployment — which components to keep, add, and retire.
//!
//! Run with `cargo run --release --example dynamic_replanning`.

use partitionable_services::mail::spec::names::*;
use partitionable_services::mail::{mail_spec, mail_translator};
use partitionable_services::monitor::{affected_edges, NetworkMonitor, ReplanDecision, Replanner};
use partitionable_services::net::casestudy::default_case_study;
use partitionable_services::planner::{Planner, PlannerConfig, ServiceRequest};
use partitionable_services::sim::{SimDuration, SimTime};

fn main() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let translator = mail_translator();

    // Initial San Diego deployment (Figure 6).
    let request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
        .rate(2.0)
        .pin(MAIL_SERVER, cs.mail_server)
        .origin(cs.mail_server)
        .require("TrustLevel", 4i64);
    let plan = planner
        .plan(&cs.network, &translator, &request)
        .expect("initial plan");
    println!("=== initial San Diego deployment ===\n{plan}\n");

    let mut monitor = NetworkMonitor::new(cs.network.clone());
    let replanner = Replanner::new(planner);

    // --- Event 1: the NY-SD WAN latency degrades mildly (400 -> 500 ms).
    let mut degraded = cs.network.clone();
    let wan = degraded
        .link_between(cs.ny_gateway, cs.sd_gateway)
        .expect("wan link")
        .id;
    degraded.link_mut(wan).latency = SimDuration::from_millis(500);
    let changes = monitor.observe(&degraded);
    println!("=== event 1: mild WAN degradation ===");
    for c in &changes {
        println!("  change: {c}");
    }
    println!(
        "  affected plan edges: {:?}",
        affected_edges(&plan, &changes)
    );
    match replanner.evaluate(SimTime::ZERO, &degraded, &translator, &request, &plan) {
        ReplanDecision::Keep => {
            println!("  decision: KEEP — the cache already amortizes the slower link\n")
        }
        other => println!("  decision: {other:?}\n"),
    }

    // --- Event 2: San Diego's nodes lose their branch trust rating
    // (say, the branch is sold off): the ViewMailServer may no longer
    // hold company mail there.
    let mut distrusted = degraded.clone();
    for id in distrusted.node_ids().collect::<Vec<_>>() {
        if distrusted.node(id).site == "SanDiego" {
            distrusted.node_mut(id).credentials.set("TrustRating", 1i64);
            distrusted.node_mut(id).credentials.set("Domain", "partner");
        }
    }
    let changes = monitor.observe(&distrusted);
    println!("=== event 2: San Diego loses company trust ===");
    println!("  {} credential changes detected", changes.len());
    println!(
        "  affected plan edges: {:?}",
        affected_edges(&plan, &changes)
    );
    match replanner.evaluate(SimTime::ZERO, &distrusted, &translator, &request, &plan) {
        ReplanDecision::Redeploy {
            plan: new_plan,
            delta,
        } => {
            println!("  decision: REDEPLOY\n{new_plan}");
            println!(
                "  delta: {} kept, {} added, {} retired",
                delta.kept.len(),
                delta.added.len(),
                delta.removed.len()
            );
            for p in &delta.removed {
                println!("    retire {} @ {}", p.component, p.node);
            }
            for p in &delta.added {
                println!("    add    {} @ {}", p.component, p.node);
            }
        }
        ReplanDecision::Infeasible(e) => {
            // MailClient requires a company-domain node; with San Diego
            // gone partner, no client component fits there at all.
            println!("  decision: INFEASIBLE for the full client ({e})");
            println!("  retrying as a restricted partner request (TrustLevel 1):");
            let partner_request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
                .rate(2.0)
                .pin(MAIL_SERVER, cs.mail_server)
                .origin(cs.mail_server)
                .require("TrustLevel", 1i64);
            match replanner.evaluate(
                SimTime::ZERO,
                &distrusted,
                &translator,
                &partner_request,
                &plan,
            ) {
                ReplanDecision::Redeploy {
                    plan: new_plan,
                    delta,
                } => {
                    println!("{new_plan}");
                    println!(
                        "  delta: {} kept, {} added, {} retired",
                        delta.kept.len(),
                        delta.added.len(),
                        delta.removed.len()
                    );
                }
                other => println!("  {other:?}"),
            }
        }
        ReplanDecision::Keep => println!("  decision: KEEP (unexpected)"),
    }
}
