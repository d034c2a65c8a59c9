//! Section 4.2's one-time costs: proxy download, planning, component
//! deployment, and startup, per client site.
//!
//! The paper reports these summing to roughly 10 seconds on its testbed
//! (JVM class loading over emulated links); our planning runs for real
//! (host wall-clock) while transfer/startup costs are simulated.

#![forbid(unsafe_code)]

use ps_bench::harness::{case_study_sites, mail_framework, site_request};
use ps_net::casestudy::default_case_study;
use ps_trace::{Report, Tracer};

fn main() {
    let cs = default_case_study();
    let mut framework = mail_framework(cs.network.clone(), cs.mail_server, &Tracer::disabled());

    let mut report = Report::new("One-time connection costs per site (Section 4.2)");
    report.line(format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>7} {:>7} {:>7} {:>9} {:>9} {:>6}",
        "site",
        "proxy[ms]",
        "plan[ms]",
        "deploy[ms]",
        "startup[ms]",
        "total[ms]",
        "created",
        "reused",
        "evals",
        "prunes",
        "boundcut",
        "rows",
        "hits"
    ));
    for (site, client, trust) in case_study_sites(&cs) {
        let connection = framework
            .connect("mail", &site_request(&cs, client, trust))
            .expect("connect");
        let c = &connection.costs;
        report.line(format!(
            "{:<10} {:>12.1} {:>12.3} {:>12.1} {:>12.1} {:>12.1} {:>9} {:>7} {:>7} {:>7} {:>9} {:>9} {:>6}",
            site,
            c.proxy_download_ms,
            c.planning_ms,
            c.deploy_transfer_ms,
            c.startup_ms,
            c.total_ms(),
            connection.deployment.created,
            connection.deployment.reused,
            c.plan_stats.mappings_evaluated,
            c.plan_stats.prunes,
            c.plan_stats.bound_prunes,
            c.plan_stats.route_rows_built,
            c.plan_stats.plan_cache_hits,
        ));
    }
    report.line("");
    report.line(
        "(paper: ~10 s total on a 1 GHz P3 with JVM class loading; the shape —\n\
         transfer-dominated, incurred once per connection — is the comparison point)",
    );
    println!("{report}");
}
