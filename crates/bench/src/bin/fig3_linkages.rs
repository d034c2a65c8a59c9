//! Figure 3: valid component chains for a `ClientInterface` request.
//!
//! Enumerates every linkage graph the planner's first step produces from
//! the mail specification and prints them, with the Figure 3 chains
//! highlighted.

#![forbid(unsafe_code)]

use ps_mail::mail_spec;
use ps_planner::{enumerate_linkages, LinkageLimits};
use ps_trace::Report;

fn main() {
    let spec = mail_spec();

    let mut report = Report::new("Figure 3: valid component chains (max one repeat)");
    let limits = LinkageLimits {
        max_repeats: 1,
        max_depth: 8,
        max_graphs: 10_000,
        ..LinkageLimits::default()
    };
    let graphs = enumerate_linkages(&spec, "ClientInterface", &limits);
    for g in &graphs {
        report.line(format!("  {g}"));
    }
    report.line(format!(
        "\n  {} chains; all start at a client component and end at MailServer",
        graphs.len()
    ));

    report.section("With component repetition (the Seattle chains)");
    let limits = LinkageLimits::default(); // max_repeats = 2
    let graphs = enumerate_linkages(&spec, "ClientInterface", &limits);
    let chained: Vec<_> = graphs
        .iter()
        .filter(|g| g.to_string().matches("ViewMailServer").count() >= 2)
        .collect();
    report.line(format!(
        "  {} total graphs, of which {} chain two view servers, e.g.:",
        graphs.len(),
        chained.len()
    ));
    for g in chained.iter().take(4) {
        report.line(format!("    {g}"));
    }
    println!("{report}");
}
