//! Figure 5: the three-site case-study topology, plus a BRITE-style
//! generated topology for comparison.

#![forbid(unsafe_code)]

use ps_net::brite::{hierarchical, HierParams};
use ps_net::casestudy::default_case_study;
use ps_net::shortest_route;
use ps_sim::Rng;
use ps_trace::Report;

fn main() {
    let cs = default_case_study();
    let net = &cs.network;
    if std::env::args().any(|a| a == "--dot") {
        // Machine-readable graphviz output, bypassing the report renderer.
        print!("{}", net.to_dot());
        return;
    }

    let mut report = Report::new("Figure 5: case-study network topology");
    report.section("nodes");
    for node in net.nodes() {
        report.line(format!(
            "  {:8} site={:9} trust={} domain={}",
            node.name,
            node.site,
            net.trust_rating(node.id).unwrap_or(0),
            node.credentials
                .get("Domain")
                .map(|v| v.to_string())
                .unwrap_or_default()
        ));
    }
    report.section("links");
    for link in net.links() {
        report.line(format!(
            "  {} -- {}  {:>7.0} ms  {:>6.0} Mb/s  {}",
            net.node(link.a).name,
            net.node(link.b).name,
            link.latency.as_millis_f64(),
            link.bandwidth_bps / 1e6,
            if net.link_secure(link.id) {
                "secure"
            } else {
                "INSECURE"
            }
        ));
    }

    report.section("inter-site routes");
    for (from, to, label) in [
        (cs.sd_client, cs.mail_server, "SanDiego -> NewYork"),
        (cs.seattle_client, cs.mail_server, "Seattle -> NewYork"),
        (cs.seattle_client, cs.sd_client, "Seattle -> SanDiego"),
    ] {
        let route = shortest_route(net, from, to).expect("connected");
        report.line(format!(
            "  {label:22} {} hops, {:.0} ms, bottleneck {:.0} Mb/s",
            route.hops(),
            route.latency.as_millis_f64(),
            route.bottleneck_bps / 1e6
        ));
    }

    report.section("BRITE-style generated topology (hierarchical, seed 7)");
    let mut rng = Rng::seed_from_u64(7);
    let generated = hierarchical(&mut rng, &HierParams::default());
    let secure = generated
        .links()
        .iter()
        .filter(|l| generated.link_secure(l.id))
        .count();
    report.line(format!(
        "  {} nodes, {} links ({} secure intra-AS, {} insecure inter-AS), connected: {}",
        generated.node_count(),
        generated.link_count(),
        secure,
        generated.link_count() - secure,
        generated.is_connected()
    ));
    println!("{report}");
}
