//! ps-lint: zero-dependency determinism & protocol-invariant static
//! analysis for the partitionable-services workspace.
//!
//! The simulator's core promise is that a seeded run is byte-identical
//! across repeats (see DESIGN.md "Determinism contract"). That promise is
//! easy to break silently: one `HashMap` iteration feeding a trace, one
//! `Instant::now()` feeding a decision, one unseeded RNG — and replays
//! diverge in ways tests only catch probabilistically. `ps-lint` makes
//! those hazards a compile-gate instead.
//!
//! v2 is a two-layer analyzer:
//!
//! 1. **Token rules** (D001–D006, [`rules`]): per-file lexical hazards
//!    over the hand-rolled lexer ([`lexer`]).
//! 2. **Semantic rules** (N001/P001/R001, [`semantic`]): a lightweight
//!    item parser ([`parser`]) feeds a workspace call graph
//!    ([`callgraph`]); inter-procedural passes then prove flow
//!    properties — nondeterminism taint from source to sink, panic
//!    reachability from the heal/invoke hot path, silently dropped
//!    fallible results — and print the full witness call chain.
//!
//! There are **no built-in path whitelists**. Every legitimate exception
//! carries an inline `// ps-lint: allow(<RULE>): <reason>` comment on the
//! line above (or the same line), and `ps-lint --list-allows` prints the
//! complete exception inventory for review.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use rules::{scan_source, AllowRecord, FileReport, Finding};

use callgraph::{FileUnit, Graph};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directories scanned under the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path components that end a descent.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// Collects every `.rs` file under the workspace root, sorted, so scan
/// output (and therefore verify logs) is itself deterministic.
pub fn workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs(&root.join(sub), &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Wall-clock microseconds spent in each analyzer stage, for the human
/// report and the verify-time budget check. Zeroed in stable-artifact
/// mode by the JSON writer, never by the analyzer.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimings {
    /// Files analyzed.
    pub files: usize,
    /// Functions in the call graph.
    pub fns: usize,
    /// Read + lex + item-parse.
    pub read_parse_us: u64,
    /// Token rules D001–D006.
    pub token_rules_us: u64,
    /// Call-graph construction (symbol index + fact extraction +
    /// resolution).
    pub graph_us: u64,
    /// Semantic passes N001/P001/R001.
    pub passes_us: u64,
    /// End-to-end, including the merge/suppression step.
    pub total_us: u64,
}

/// The full two-layer analysis result.
pub struct WorkspaceAnalysis {
    /// Per-file reports in sorted path order, token and semantic
    /// findings merged, suppressions applied.
    pub reports: Vec<FileReport>,
    /// Per-stage wall times.
    pub timings: StageTimings,
}

/// The lint's own stopwatch. ps-lint analyzes its own source, so this
/// site carries the same discipline it enforces: the readings feed the
/// report's timing footer only, and the JSON writer zeroes them under
/// `PS_STABLE_ARTIFACTS=1`.
#[allow(clippy::disallowed_methods)]
fn stage_clock() -> std::time::Instant {
    // ps-lint: allow(D002, N001): lint-stage timing for the report footer and
    // verify wall-time budget; zeroed in stable mode, never in artifacts
    std::time::Instant::now()
}

/// Analyzes a set of already-loaded files (label, source) with
/// `entries` as the P001 entry set (none: P001 audits nothing). Exposed
/// so fixture tests can drive the full pipeline — including the
/// semantic passes with their own entry set — without touching the
/// filesystem.
pub fn analyze_sources(files: &[(String, String)], entries: &[&str]) -> WorkspaceAnalysis {
    let t_total = stage_clock();

    let t = stage_clock();
    let units: Vec<FileUnit> = files
        .iter()
        .map(|(label, source)| {
            let lexed = lexer::lex(source);
            let parsed = parser::parse_file(label, &lexed);
            FileUnit {
                label: label.clone(),
                lexed,
                parsed,
            }
        })
        .collect();
    let read_parse_us = t.elapsed().as_micros() as u64;

    let t = stage_clock();
    let mut per_file: Vec<Vec<Finding>> = units
        .iter()
        .map(|u| rules::token_findings(&u.lexed))
        .collect();
    let token_rules_us = t.elapsed().as_micros() as u64;

    let t = stage_clock();
    let graph = Graph::build(&units);
    let graph_us = t.elapsed().as_micros() as u64;

    let t = stage_clock();
    for sf in semantic::run_passes(&graph, &units, entries) {
        if let Some(findings) = per_file.get_mut(sf.file) {
            findings.push(sf.finding);
        }
    }
    let passes_us = t.elapsed().as_micros() as u64;

    let reports: Vec<FileReport> = units
        .iter()
        .zip(per_file)
        .map(|(unit, mut findings)| {
            findings.sort_by_key(|f| (f.line, f.rule));
            let token_lines: BTreeSet<u32> = unit.lexed.tokens.iter().map(|t| t.line).collect();
            let mut allows: Vec<AllowRecord> = unit
                .lexed
                .allows
                .iter()
                .cloned()
                .map(|allow| AllowRecord { allow, used: 0 })
                .collect();
            rules::apply_allows(&mut findings, &mut allows, &token_lines);
            FileReport {
                path: unit.label.clone(),
                findings,
                allows,
            }
        })
        .collect();

    let timings = StageTimings {
        files: units.len(),
        fns: graph.nodes.len(),
        read_parse_us,
        token_rules_us,
        graph_us,
        passes_us,
        total_us: t_total.elapsed().as_micros() as u64,
    };
    WorkspaceAnalysis { reports, timings }
}

/// Runs the full two-layer analysis over the workspace rooted at
/// `root`. Reports come back in sorted path order; unreadable files are
/// skipped.
pub fn analyze_workspace(root: &Path) -> WorkspaceAnalysis {
    let mut files: Vec<(String, String)> = Vec::new();
    for path in workspace_rs_files(root) {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        files.push((label, source));
    }
    analyze_sources(&files, semantic::HOT_PATH_ENTRIES)
}

/// Scans the whole workspace: [`analyze_workspace`] without the
/// timings. Kept as the stable entry point for tests and callers that
/// only need the reports.
pub fn scan_workspace(root: &Path) -> Vec<FileReport> {
    analyze_workspace(root).reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_source_reports_and_suppresses() {
        let src = r#"
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
                m.keys().copied().collect()
            }
        "#;
        let report = scan_source("t.rs", src);
        let hits: Vec<_> = report.unsuppressed().collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "D001");
    }

    #[test]
    fn allow_comment_silences_next_code_line() {
        let src = r#"
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
                // ps-lint: allow(D001): output feeds a set-equality check only
                m.keys().copied().collect()
            }
        "#;
        let report = scan_source("t.rs", src);
        assert_eq!(report.unsuppressed().count(), 0);
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].used, 1);
    }

    #[test]
    fn analyze_sources_merges_semantic_findings() {
        let files = vec![(
            "crates/x/src/a.rs".to_owned(),
            r#"
            fn fallible() -> Result<u32, String> { Ok(1) }
            fn go() {
                let _ = fallible();
            }
            "#
            .to_owned(),
        )];
        let analysis = analyze_sources(&files, &["go"]);
        let rules: Vec<&str> = analysis.reports[0].unsuppressed().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["R001"]);
        assert_eq!(analysis.timings.files, 1);
        assert_eq!(analysis.timings.fns, 2);
    }
}
