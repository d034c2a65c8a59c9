//! Section 4.2's one-time costs: proxy download, planning, component
//! deployment, and startup, per client site.
//!
//! The paper reports these summing to roughly 10 seconds on its testbed
//! (JVM class loading over emulated links); our planning runs for real
//! (host wall-clock) while transfer/startup costs are simulated.

#![forbid(unsafe_code)]

use ps_core::Framework;
use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::casestudy::default_case_study;
use ps_planner::ServiceRequest;
use ps_smock::{CoherencePolicy, ServiceRegistration};
use ps_trace::Report;

fn main() {
    let cs = default_case_study();
    let mut framework = Framework::new(
        cs.network.clone(),
        cs.mail_server,
        Box::new(mail_translator()),
    );
    register_mail_components(
        &mut framework.server.registry,
        Keyring::new(1),
        CoherencePolicy::CountLimit(500),
    );
    framework.register_service(
        ServiceRegistration::new(mail_spec())
            .attribute("type", "mail")
            .proxy_code_size(32 * 1024),
    );
    framework
        .install_primary("mail", MAIL_SERVER, cs.mail_server)
        .expect("primary");

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
        "table[µs]",
        "hits"
    ));
    for (site, client, trust) in [
        ("NewYork", cs.ny_client, 4i64),
        ("SanDiego", cs.sd_client, 4),
        ("Seattle", cs.seattle_client, 1),
    ] {
        let request = ServiceRequest::new(CLIENT_INTERFACE, client)
            .rate(5.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        let connection = framework.connect("mail", &request).expect("connect");
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
            c.plan_stats.route_table_build_us,
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
