//! Critical-path extraction against the mail case study: the connect
//! span tree for each Section 4.2 site must reproduce the known
//! dominant phase (deploy for the LAN-local New York client; the WAN
//! lookup round trip for San Diego), and the path segmentation must
//! cover the whole connect interval.

use ps_bench::harness::{case_study_sites, mail_framework, site_request};
use ps_net::casestudy::default_case_study;
use ps_trace::{scope_critical_path, Tracer};

/// Connects the three case-study sites under a memory tracer and
/// returns the captured event stream.
fn traced_connects() -> Vec<ps_trace::Event> {
    let (tracer, sink) = Tracer::memory();
    let cs = default_case_study();
    let mut framework = mail_framework(cs.network.clone(), cs.mail_server, &tracer);
    for (_, client, trust) in case_study_sites(&cs) {
        framework
            .connect("mail", &site_request(&cs, client, trust))
            .expect("connect");
    }
    framework.run();
    sink.events()
}

#[test]
fn connect_critical_paths_match_known_dominant_phases() {
    let events = traced_connects();

    // New York sits on the server's LAN: lookup and transfer are
    // near-instant, the fixed component deploy time dominates.
    let ny = scope_critical_path("conn-0", &events).expect("conn-0 path");
    assert_eq!(ny.root, "connect");
    let (phase, ns) = ny.dominant().expect("non-empty path");
    assert_eq!(
        phase,
        "deploy",
        "New York's connect must be dominated by deploy, got {phase} ({ns} ns): {:?}",
        ny.phase_totals()
    );
    // Deploy is a fixed 500 ms; the path attributes the overlapped head
    // of the interval to the earlier-entered transfer span.
    assert!(
        (490_000_000..=500_000_000).contains(&ns),
        "deploy's critical-path share should be ~500 ms, got {ns} ns"
    );

    // San Diego is behind the WAN: the 801 ms lookup round trip leads
    // the path, and the overlapping proxy transfer only contributes its
    // un-shadowed tail (earliest-enter-first attribution).
    let sd = scope_critical_path("conn-1", &events).expect("conn-1 path");
    let (phase, ns) = sd.dominant().expect("non-empty path");
    assert_eq!(
        phase,
        "lookup",
        "San Diego's connect path must be led by the WAN lookup: {:?}",
        sd.phase_totals()
    );
    assert_eq!(ns, 801_024_000);
    assert!(
        sd.phase_ns("transfer") < 801_024_000 && sd.phase_ns("transfer") > 0,
        "the overlapped transfer contributes only its tail, got {} ns",
        sd.phase_ns("transfer")
    );

    // The segmentation is gap-free: segments tile the root interval.
    for path in [&ny, &sd] {
        let covered: u64 = path.segments.iter().map(|s| s.duration_ns()).sum();
        assert_eq!(
            covered, path.total_ns,
            "critical-path segments must tile the connect interval exactly"
        );
    }
}
