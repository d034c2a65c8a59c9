//! Coherence-policy ablation: send latency and flush behaviour of the
//! San Diego deployment under write-through, count-limited, time-driven,
//! and no propagation.

#![forbid(unsafe_code)]

use ps_bench::{run_custom_policy, Fig7Config};
use ps_sim::SimDuration;
use ps_smock::CoherencePolicy;
use ps_trace::Report;

fn main() {
    let base = Fig7Config {
        clients: 3,
        msgs_per_client: 1000,
        ..Default::default()
    };
    let mut report =
        Report::new("Coherence-policy ablation (San Diego deployment, 3 clients x 1000 msgs)");
    report.line(format!(
        "{:<22} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "policy", "mean[ms]", "p50[ms]", "p95[ms]", "recv[ms]", "simtime[s]"
    ));

    let mut policies: Vec<(String, CoherencePolicy)> = vec![
        ("none".into(), CoherencePolicy::None),
        ("write-through".into(), CoherencePolicy::WriteThrough),
    ];
    for limit in [50u32, 100, 250, 500, 1000, 2000] {
        policies.push((
            format!("count-limit({limit})"),
            CoherencePolicy::CountLimit(limit),
        ));
    }
    for ms in [100u64, 500, 1000, 5000] {
        policies.push((
            format!("time-driven({ms}ms)"),
            CoherencePolicy::TimeDriven(SimDuration::from_millis(ms)),
        ));
    }

    for (name, policy) in policies {
        let r = run_custom_policy(policy, &base);
        report.line(format!(
            "{:<22} {:>12.3} {:>10.3} {:>10.3} {:>12.3} {:>12.2}",
            name,
            r.send.mean(),
            r.send_p50,
            r.send_p95,
            r.receive.mean(),
            r.completed_at.as_secs_f64()
        ));
    }
    report.line("");
    report.line(
        "(write-through pays the WAN on every send; looser limits amortize the\n\
         per-flush fixed cost, approaching the no-coherence floor)",
    );
    println!("{report}");
}
