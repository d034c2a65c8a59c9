//! Figure 7: average client-perceived send latency for the nine
//! scenarios at 1–5 clients.
//!
//! Usage: `fig7_latency [msgs_per_client] [seed]` (defaults 2000, 42).
//! Prints the mean send latency per scenario per client count, the
//! group structure the paper highlights, and the receive latencies.

#![forbid(unsafe_code)]

use ps_bench::{Fig7Config, Scenario};
use ps_trace::Report;

fn main() {
    let mut args = std::env::args().skip(1);
    let msgs: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let base = Fig7Config {
        msgs_per_client: msgs,
        seed,
        ..Default::default()
    };

    let mut report = Report::new("Figure 7: average client-perceived send latency [ms]");
    report.line(format!(
        "(workload: {msgs} sends + 10 receives per client cluster, seed {seed})\n"
    ));
    report.line(format!(
        "{:<8} {:>2} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "scenario", "g", "1 client", "2", "3", "4", "5"
    ));

    let results = ps_bench::figure7_sweep(5, &base);
    let mut means: Vec<(Scenario, Vec<f64>)> = Vec::new();
    for scenario in Scenario::ALL {
        let row: Vec<f64> = (1..=5usize)
            .map(|clients| {
                results
                    .iter()
                    .find(|r| r.scenario == scenario && r.clients == clients)
                    .map(|r| r.send.mean())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        report.line(format!(
            "{:<8} {:>2} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            scenario.to_string(),
            scenario.paper_group(),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4]
        ));
        means.push((scenario, row));
    }

    report.line("");
    report.line(ps_bench::render_figure7(&results, 5));

    // Planning-time claims are backed by recorded counters: the one-time
    // costs of the planner-driven (dynamic) scenarios at 1 client.
    report.section("recorded one-time planning costs (dynamic scenarios, 1 client)");
    for r in &results {
        if r.clients != 1 {
            continue;
        }
        if let Some(costs) = &r.plan_costs {
            report.line(format!("{:<8} {costs}", r.scenario.to_string()));
        }
    }

    // The paper's three observations, checked on the data.
    report.section("shape checks (the paper's three key points)");
    let mean_of = |s: Scenario, c: usize| -> f64 {
        means
            .iter()
            .find(|(sc, _)| *sc == s)
            .map(|(_, row)| row[c - 1])
            .unwrap_or(f64::NAN)
    };

    // 1. Dynamic == static counterparts.
    let pairs = [
        (Scenario::DF, Scenario::SF),
        (Scenario::DS0, Scenario::SS0),
        (Scenario::DS500, Scenario::SS500),
        (Scenario::DS1000, Scenario::SS1000),
    ];
    let max_gap = pairs
        .iter()
        .flat_map(|(d, s)| {
            (1..=5).map(move |c| {
                let (a, b) = (mean_of(*d, c), mean_of(*s, c));
                (a - b).abs() / b.max(1e-9)
            })
        })
        .fold(0.0f64, f64::max);
    report.line(format!(
        "1. dynamic vs static overhead: max relative gap {:.2}% (paper: virtually indistinguishable)",
        max_gap * 100.0
    ));

    // 2. Caching before the slow link vs the naive static deployment.
    let speedup = mean_of(Scenario::SS, 1) / mean_of(Scenario::DS0, 1);
    report.line(format!(
        "2. automatic caching gain: SS / DS0 = {speedup:.0}x at 1 client (paper: orders of magnitude)"
    ));

    // 3. Remote ~ local to the extent the coherence protocol permits.
    report.line(format!(
        "3. remote vs local access: DF {:.2} ms vs DS0 {:.2} / DS1000 {:.2} / DS500 {:.2} ms",
        mean_of(Scenario::DF, 1),
        mean_of(Scenario::DS0, 1),
        mean_of(Scenario::DS1000, 1),
        mean_of(Scenario::DS500, 1),
    ));

    // Group ordering.
    let g1 = mean_of(Scenario::DS0, 5).max(mean_of(Scenario::DF, 5));
    let g2 = mean_of(Scenario::DS1000, 5);
    let g3 = mean_of(Scenario::DS500, 5);
    let g4 = mean_of(Scenario::SS, 5);
    let ordered = g1 < g2 && g2 < g3 && g3 < g4;
    report.line(format!(
        "group ordering at 5 clients: {:.2} < {:.2} < {:.2} < {:.2} : {}",
        g1,
        g2,
        g3,
        g4,
        if ordered {
            "OK (matches Figure 7)"
        } else {
            "MISMATCH"
        }
    ));
    println!("{report}");
}
