//! RRF crossover ablation: at what declared Request Reduction Factor
//! does the planner stop deploying a `ViewMailServer` cache before the
//! slow link?
//!
//! The cache pays two local hops and its own CPU on every request and
//! saves `(1 − RRF)` of the WAN round trips; past a break-even RRF the
//! direct (encrypted) connection wins. The same sweep across WAN
//! latencies shows the crossover moving: the slower the link, the worse
//! a cache must be before it loses.

#![forbid(unsafe_code)]

use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator};
use ps_net::casestudy::default_case_study;
use ps_planner::{Planner, PlannerConfig, ServiceRequest};
use ps_sim::SimDuration;
use ps_trace::Report;
use std::fmt::Write as _;

fn main() {
    let mut report = Report::new("RRF crossover: does the planner deploy the cache?");
    report.line(format!("{:<14}", "WAN latency"));
    let rrfs: Vec<f64> = vec![0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98, 0.99, 1.0];
    let mut header = format!("{:<14}", "rrf:");
    for rrf in &rrfs {
        let _ = write!(header, " {rrf:>5.2}");
    }
    report.line(header);

    for wan_ms in [1u64, 2, 5, 10, 50, 400] {
        let mut cs = default_case_study();
        // Rescale the NY–SD link.
        let link_id = cs
            .network
            .link_between(cs.ny_gateway, cs.sd_gateway)
            .expect("wan link")
            .id;
        cs.network.link_mut(link_id).latency = SimDuration::from_millis(wan_ms);

        let mut row = format!("{:<14}", format!("{wan_ms} ms"));
        for rrf in &rrfs {
            let mut spec = mail_spec();
            spec.components
                .get_mut(VIEW_MAIL_SERVER)
                .expect("vms exists")
                .behavior
                .rrf = *rrf;
            let planner = Planner::with_config(spec, PlannerConfig::default());
            let request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
                .rate(2.0)
                .pin(MAIL_SERVER, cs.mail_server)
                .origin(cs.mail_server)
                .require("TrustLevel", 4i64);
            let plan = planner
                .plan(&cs.network, &mail_translator(), &request)
                .expect("feasible");
            let cached = plan.placement_of(VIEW_MAIL_SERVER).is_some();
            let _ = write!(row, " {:>5}", if cached { "cache" } else { "-" });
        }
        report.line(row);
    }
    report.line("");
    report.line("('cache' = plan includes a ViewMailServer; '-' = direct encrypted connection)");
    println!("{report}");
}
