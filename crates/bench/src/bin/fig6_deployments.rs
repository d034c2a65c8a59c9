//! Figure 6: the deployments the framework generates for clients at the
//! three sites, following the paper's timeline (New York, then San
//! Diego, then Seattle, each seeing the earlier deployments).

#![forbid(unsafe_code)]

use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator};
use ps_net::casestudy::default_case_study;
use ps_planner::{Plan, Planner, PlannerConfig, ServiceRequest};
use ps_trace::Report;

fn main() {
    let cs = default_case_study();
    let planner = Planner::with_config(mail_spec(), PlannerConfig::default());
    let translator = mail_translator();

    let mut existing: Vec<Plan> = Vec::new();
    let mut report = Report::new("Figure 6: dynamically deployed components");
    for (site, client, trust) in [
        ("New York", cs.ny_client, 4i64),
        ("San Diego", cs.sd_client, 4),
        ("Seattle", cs.seattle_client, 1),
    ] {
        let mut request = ServiceRequest::new(CLIENT_INTERFACE, client)
            .rate(2.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        for plan in &existing {
            request = request.with_existing_plan(plan);
        }
        let plan = planner
            .plan(&cs.network, &translator, &request)
            .expect("feasible deployment");
        report.section(format!("client request from {site}"));
        for p in &plan.placements {
            report.line(format!(
                "  {:16} @ {:10} {}{}",
                p.component,
                cs.network.node(p.node).name,
                if p.factors.is_empty() {
                    String::new()
                } else {
                    format!("[{}] ", p.factors)
                },
                if p.preexisting {
                    "(existing)"
                } else {
                    "(deployed)"
                }
            ));
        }
        report.line(format!(
            "  expected latency {:8.3} ms | deploy cost {:8.1} ms | sustainable {:7.1} req/s",
            plan.expected_latency_ms, plan.deployment_cost_ms, plan.sustainable_rate
        ));
        report.line(format!(
            "  search: {} graphs, {} mappings evaluated, {} prunes",
            plan.stats.graphs_enumerated, plan.stats.mappings_evaluated, plan.stats.prunes
        ));
        if std::env::args().any(|a| a == "--dot") {
            report.line(format!("--- graphviz ---\n{}", plan.to_dot(&cs.network)));
        }
        existing.push(plan);
    }
    println!("{report}");
}
