//! Fixture tests: each rule fires at exactly the expected (rule, line)
//! sites in its `*_bad.rs` fixture, and an inline
//! `// ps-lint: allow(...)` comment silences it in the `*_allow.rs`
//! twin. Fixtures live under `tests/fixtures/`, which the workspace walk
//! skips, so the lint gate never trips on its own test corpus.

use ps_lint::{scan_source, FileReport};

fn scan_fixture(name: &str) -> FileReport {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"));
    scan_source(name, &source)
}

fn rule_lines(report: &FileReport) -> Vec<(&'static str, u32)> {
    report.findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn d001_fires_on_chain_and_for_loop() {
    let report = scan_fixture("d001_bad.rs");
    assert_eq!(rule_lines(&report), vec![("D001", 4), ("D001", 9)]);
    assert_eq!(report.unsuppressed().count(), 2);
}

#[test]
fn d001_allow_silences_both_forms() {
    let report = scan_fixture("d001_allow.rs");
    assert_eq!(rule_lines(&report), vec![("D001", 5), ("D001", 11)]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert_eq!(report.allows.len(), 2);
    assert!(report.allows.iter().all(|a| a.used == 1));
    assert!(report.allows[0].allow.reason.contains("set-equality"));
}

#[test]
fn d002_fires_on_instant_and_system_time() {
    let report = scan_fixture("d002_bad.rs");
    assert_eq!(rule_lines(&report), vec![("D002", 2), ("D002", 3)]);
    assert_eq!(report.unsuppressed().count(), 2);
}

#[test]
fn d002_allow_silences_wall_clock() {
    let report = scan_fixture("d002_allow.rs");
    assert_eq!(rule_lines(&report), vec![("D002", 3)]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].used, 1);
}

#[test]
fn d003_fires_on_random_state() {
    let report = scan_fixture("d003_bad.rs");
    assert_eq!(rule_lines(&report), vec![("D003", 2)]);
    assert_eq!(report.unsuppressed().count(), 1);
}

#[test]
fn d003_allow_silences_entropy() {
    let report = scan_fixture("d003_allow.rs");
    assert_eq!(rule_lines(&report), vec![("D003", 3)]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert!(report.allows[0].allow.reason.contains("cache key"));
}

#[test]
fn d004_fires_on_channel_and_spawn() {
    let report = scan_fixture("d004_bad.rs");
    assert_eq!(rule_lines(&report), vec![("D004", 2), ("D004", 5)]);
    assert_eq!(report.unsuppressed().count(), 2);
}

#[test]
fn d004_allow_silences_slot_indexed_fanout() {
    let report = scan_fixture("d004_allow.rs");
    assert_eq!(rule_lines(&report), vec![("D004", 7)]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert!(report.allows[0].allow.reason.contains("slot-indexed"));
}

#[test]
fn d005_fires_on_float_sum_and_fold() {
    let report = scan_fixture("d005_bad.rs");
    assert_eq!(rule_lines(&report), vec![("D005", 4), ("D005", 8)]);
    assert_eq!(report.unsuppressed().count(), 2);
}

#[test]
fn d005_allow_silences_chain_and_loop_accumulator() {
    let report = scan_fixture("d005_allow.rs");
    assert_eq!(
        rule_lines(&report),
        vec![("D005", 5), ("D001", 11), ("D005", 13)]
    );
    assert_eq!(report.unsuppressed().count(), 0);
    assert_eq!(report.allows.len(), 3);
    assert!(report.allows.iter().all(|a| a.used == 1));
}

#[test]
fn d006_fires_on_process_wide_mutable_state() {
    let report = scan_fixture("d006_bad.rs");
    // The atomic, `static mut`, lock, lazy cell and `thread_local!`
    // (whose inner `static` of a `Cell` is not itself flagged); not the
    // immutable `&str` static or the `'static` lifetime.
    assert_eq!(
        rule_lines(&report),
        vec![
            ("D006", 5),
            ("D006", 6),
            ("D006", 7),
            ("D006", 8),
            ("D006", 9)
        ]
    );
    assert_eq!(report.unsuppressed().count(), 5);
}

#[test]
fn d006_allow_silences_a_diagnostic_counter() {
    let report = scan_fixture("d006_allow.rs");
    assert_eq!(rule_lines(&report), vec![("D006", 4)]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert!(report.allows[0].allow.reason.contains("diagnostic"));
}

/// Runs the full two-layer pipeline on one fixture. The label is placed
/// under a fake `crates/fx/src/` path so the semantic passes do not
/// treat the fixture as test code.
fn analyze_fixture(name: &str, entries: &[&str]) -> FileReport {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"));
    let label = format!("crates/fx/src/{name}");
    let mut analysis = ps_lint::analyze_sources(&[(label, source)], entries);
    analysis.reports.remove(0)
}

#[test]
fn n001_laundered_taint_fires_where_token_rules_cannot() {
    let report = analyze_fixture("n001_bad.rs", &[]);
    // Token layer: only the (allowed) leaf D002. Semantic layer: the
    // sink contact in `emit`, three calls away from the clock read.
    let n001: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "N001")
        .collect();
    assert_eq!(n001.len(), 1);
    assert_eq!(n001[0].line, 18);
    assert!(!n001[0].suppressed);
    assert_eq!(
        n001[0].chain,
        vec![
            "Instant::now (crates/fx/src/n001_bad.rs:12)",
            "read_clock",
            "launder",
            "emit",
            "Tracer::observe (crates/fx/src/n001_bad.rs:18)",
        ]
    );
    // The token-only scanner provably misses the sink contact: its only
    // finding is the D002 at the clock read itself.
    let path = format!("{}/tests/fixtures/n001_bad.rs", env!("CARGO_MANIFEST_DIR"));
    let token_only = scan_source("n001_bad.rs", &std::fs::read_to_string(path).unwrap());
    assert!(token_only.findings.iter().all(|f| f.rule == "D002"));
    assert!(token_only.findings.iter().all(|f| f.line != 18));
}

#[test]
fn n001_allow_at_source_is_a_sanctioned_boundary() {
    let report = analyze_fixture("n001_allow.rs", &[]);
    // D002 and the N001 boundary finding, both suppressed by the one
    // combined allow; no sink contact downstream.
    assert_eq!(report.unsuppressed().count(), 0);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "N001" && f.line == 11));
    assert!(report.findings.iter().all(|f| f.line <= 11));
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].used, 2);
}

#[test]
fn p001_fires_reachable_panic_with_entry_chain() {
    let report = analyze_fixture("p001_bad.rs", &["Framework::heal"]);
    let p001: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "P001")
        .collect();
    assert_eq!(p001.len(), 2, "only the reachable unwraps fire");
    assert_eq!(p001[0].line, 20);
    assert_eq!(p001[0].chain, vec!["Framework::heal", "helper", "deep"]);
    assert!(p001[0].message.contains("Framework::heal → helper → deep"));
    // `passed` is reached only as `.map(passed)`: a fn passed by name is
    // an edge like a call.
    assert_eq!(p001[1].line, 23);
    assert_eq!(p001[1].chain, vec!["Framework::heal", "passed"]);
}

#[test]
fn p001_allow_silences_reachable_panic() {
    let report = analyze_fixture("p001_allow.rs", &["Framework::heal"]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "P001" && f.suppressed));
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].used, 1);
}

/// A renamed or deleted entry must not shrink the audited cone in
/// silence: the unresolved name is an unsuppressed finding of its own.
#[test]
fn p001_entry_that_resolves_to_nothing_is_a_finding() {
    let entries = ["Framework::heal", "Framework::heal_renamed"];
    let report = analyze_fixture("p001_bad.rs", &entries);
    let unresolved: Vec<_> = report
        .unsuppressed()
        .filter(|f| f.rule == "P001" && f.line == 0)
        .collect();
    assert_eq!(unresolved.len(), 1, "one of the two entries resolves");
    assert!(unresolved[0].message.contains("`Framework::heal_renamed`"));
}

#[test]
fn r001_fires_on_result_drop_but_not_fmt_macro() {
    let report = analyze_fixture("r001_bad.rs", &[]);
    let r001: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "R001")
        .collect();
    assert_eq!(r001.len(), 1);
    assert_eq!(r001[0].line, 8);
    assert_eq!(r001[0].chain, vec!["go"]);
    assert!(r001[0].message.contains("fallible()"));
}

#[test]
fn r001_allow_silences_discard() {
    let report = analyze_fixture("r001_allow.rs", &[]);
    assert_eq!(report.unsuppressed().count(), 0);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].used, 1);
}

#[test]
fn malformed_allow_is_an_unsuppressable_finding() {
    let src = "// ps-lint: allow(D001)\nfn f() {}\n";
    let report = scan_source("inline.rs", src);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "D000");
    assert!(!report.findings[0].suppressed);
}

/// The real workspace must stay clean: zero unsuppressed findings, and
/// every suppression actually in use. This mirrors the verify.sh gate so
/// a plain `cargo test` catches regressions too.
#[test]
fn workspace_is_clean() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let reports = ps_lint::scan_workspace(std::path::Path::new(&root));
    assert!(reports.len() > 50, "workspace walk found too few files");
    let mut problems = Vec::new();
    for report in &reports {
        for f in report.unsuppressed() {
            problems.push(format!(
                "{} {}:{}: {}",
                f.rule, report.path, f.line, f.message
            ));
        }
        for a in &report.allows {
            if a.used == 0 {
                problems.push(format!(
                    "{}:{}: unused suppression allow({})",
                    report.path,
                    a.allow.line,
                    a.allow.rules.join(",")
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "workspace lint debt:\n{}",
        problems.join("\n")
    );
}
