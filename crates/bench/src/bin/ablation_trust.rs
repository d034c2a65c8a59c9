//! Trust/sensitivity ablation: measured send latency of the San Diego
//! deployment as the workload's sensitivity mix shifts above the view
//! server's trust level.
//!
//! Messages with sensitivity ≤ 3 are absorbed by the San Diego cache;
//! higher levels bypass it synchronously across the WAN. As the mix
//! shifts upward the measured latency climbs from the cached floor
//! toward the no-cache ceiling — the run-time enforcement of the
//! trust-level storage policy.

#![forbid(unsafe_code)]

use ps_bench::{run_scenario_with_policy, Fig7Config, Scenario};
use ps_smock::CoherencePolicy;
use ps_trace::Report;

fn main() {
    let mut report = Report::new("Sensitivity mix vs send latency (San Diego, trust-3 cache)");
    report.line(format!(
        "{:<18} {:>14} {:>12} {:>12}",
        "sensitivity", "bypass[frac]", "mean[ms]", "p95[ms]"
    ));
    for (lo, hi) in [(1u8, 1u8), (1, 2), (1, 3), (1, 5), (3, 5), (4, 5), (5, 5)] {
        let config = Fig7Config {
            clients: 1,
            msgs_per_client: 500,
            sensitivity: (lo, hi),
            ..Default::default()
        };
        // Expected fraction of sends above trust level 3 under the
        // uniform mix.
        let levels: Vec<u8> = (lo..=hi).collect();
        let bypass = levels.iter().filter(|&&s| s > 3).count() as f64 / levels.len() as f64;
        let r = run_scenario_with_policy(Scenario::DS0, CoherencePolicy::None, &config);
        report.line(format!(
            "{:<18} {:>14.2} {:>12.3} {:>12.3}",
            format!("uniform {lo}..={hi}"),
            bypass,
            r.send.mean(),
            r.send_p95
        ));
    }
    report.line("");
    report.line(
        "(bypass fraction x WAN round trip dominates the mean once sensitive\n\
         messages outnumber cacheable ones)",
    );
    println!("{report}");
}
