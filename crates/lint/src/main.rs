//! CLI for ps-lint. Usage:
//!
//! ```text
//! cargo run -p ps-lint                      # scan the workspace, exit 1 on findings
//! cargo run -p ps-lint -- --list-allows     # print the suppression inventory
//! cargo run -p ps-lint -- --root <dir>      # scan a different root
//! cargo run -p ps-lint -- --format json     # machine-readable report (stable field order)
//! cargo run -p ps-lint -- --format github   # GitHub workflow annotations
//! cargo run -p ps-lint -- file.rs ...       # scan specific files (no P001)
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut list_allows = false;
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-allows" => list_allows = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("ps-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "ps-lint: --format requires one of human|json|github (got {other:?})"
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "ps-lint: determinism & protocol-invariant static analysis\n\
                     \n\
                     usage: ps-lint [--root DIR] [--format human|json|github] \
                     [--list-allows] [FILE.rs ...]\n\
                     \n\
                     token rules: D001 hash-order iteration, D002 wall-clock reads,\n\
                     D003 unseeded randomness, D004 unordered parallel reduction,\n\
                     D005 float accumulation order, D006 process-wide mutable\n\
                     state (D000 = malformed suppression)\n\
                     \n\
                     semantic rules (workspace call graph, chain-printed):\n\
                     N001 nondeterminism taint reaching artifacts or trace sinks,\n\
                     P001 panic-capable sites reachable from the heal/invoke hot\n\
                     path, R001 dropped fallibility (`let _ =` on fallible calls)\n\
                     \n\
                     suppress with `// ps-lint: allow(RULE, ...): <reason>` on the\n\
                     preceding line; --list-allows prints the full inventory"
                );
                return ExitCode::SUCCESS;
            }
            other => files.push(PathBuf::from(other)),
        }
    }

    let analysis = if files.is_empty() {
        // Default root: the workspace this binary was built from.
        let root = root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
        ps_lint::analyze_workspace(&root)
    } else {
        let mut sources = Vec::new();
        for path in &files {
            match std::fs::read_to_string(path) {
                Ok(src) => sources.push((path.to_string_lossy().into_owned(), src)),
                Err(e) => {
                    eprintln!("ps-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        // P001's entry set only resolves against the whole workspace.
        ps_lint::analyze_sources(&sources, &[])
    };
    let reports = &analysis.reports;

    if list_allows {
        let mut total = 0usize;
        let mut unused = 0usize;
        for report in reports {
            for rec in &report.allows {
                total += 1;
                let rules = rec.allow.rules.join(",");
                let status = if rec.used > 0 { "used" } else { "UNUSED" };
                if rec.used == 0 {
                    unused += 1;
                }
                println!(
                    "{}:{}: allow({rules}) [{status}] — {}",
                    report.path, rec.allow.line, rec.allow.reason
                );
            }
        }
        println!("ps-lint: {total} suppression(s), {unused} unused");
        return ExitCode::SUCCESS;
    }

    let unsuppressed: usize = reports.iter().map(|r| r.unsuppressed().count()).sum();

    match format {
        Format::Json => print_json(&analysis, unsuppressed),
        Format::Github => print_github(reports),
        Format::Human => print_human(&analysis, unsuppressed),
    }

    if unsuppressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_human(analysis: &ps_lint::WorkspaceAnalysis, unsuppressed: usize) {
    let mut suppressed = 0usize;
    for report in &analysis.reports {
        for finding in &report.findings {
            if finding.suppressed {
                suppressed += 1;
                continue;
            }
            println!(
                "{} {}:{}: {}",
                finding.rule, report.path, finding.line, finding.message
            );
        }
    }
    let t = &analysis.timings;
    println!(
        "ps-lint: {} file(s), {} fn(s); {unsuppressed} finding(s), {suppressed} suppressed",
        t.files, t.fns
    );
    println!(
        "ps-lint: stages: read+parse {:.1}ms, token rules {:.1}ms, \
         call graph {:.1}ms, semantic passes {:.1}ms, total {:.1}ms",
        t.read_parse_us as f64 / 1000.0,
        t.token_rules_us as f64 / 1000.0,
        t.graph_us as f64 / 1000.0,
        t.passes_us as f64 / 1000.0,
        t.total_us as f64 / 1000.0,
    );
}

/// GitHub workflow-command annotations: one `::error`/`::notice` line per
/// finding, attributed to file and line in the diff view.
fn print_github(reports: &[ps_lint::FileReport]) {
    for report in reports {
        for finding in &report.findings {
            if finding.suppressed {
                continue;
            }
            println!(
                "::error file={},line={},title=ps-lint {}::{}",
                report.path,
                finding.line,
                finding.rule,
                gh_escape(&finding.message)
            );
        }
    }
}

/// Hand-rolled JSON report. Field order is fixed by construction; files
/// and findings arrive pre-sorted, so byte-identical inputs produce
/// byte-identical reports. Stage timings come from the library, which
/// zeroes them under `PS_STABLE_ARTIFACTS=1` — in stable mode two runs
/// over the same tree `cmp` equal.
fn print_json(analysis: &ps_lint::WorkspaceAnalysis, unsuppressed: usize) {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"version\": 2,\n  \"findings\": [");
    let mut first = true;
    let mut suppressed = 0usize;
    let mut allows = 0usize;
    let mut unused_allows = 0usize;
    for report in &analysis.reports {
        for rec in &report.allows {
            allows += 1;
            if rec.used == 0 {
                unused_allows += 1;
            }
        }
        for finding in &report.findings {
            if finding.suppressed {
                suppressed += 1;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {\"rule\": ");
            json_string(&mut out, finding.rule);
            out.push_str(", \"path\": ");
            json_string(&mut out, &report.path);
            out.push_str(&format!(", \"line\": {}", finding.line));
            out.push_str(&format!(", \"suppressed\": {}", finding.suppressed));
            out.push_str(", \"message\": ");
            json_string(&mut out, &finding.message);
            out.push_str(", \"chain\": [");
            for (i, hop) in finding.chain.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json_string(&mut out, hop);
            }
            out.push_str("]}");
        }
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"summary\": {{\"files\": {}, \"fns\": {}, \"unsuppressed\": {unsuppressed}, \
         \"suppressed\": {suppressed}, \"allows\": {allows}, \
         \"unused_allows\": {unused_allows}}},\n",
        analysis.timings.files, analysis.timings.fns
    ));
    // Stable mode: zero the wall-clock stage timings so two runs over
    // the same tree produce byte-identical reports (`cmp`-able in CI).
    // The same variable `ps-bench` reads through `Mode::from_env`, read
    // here directly: the linter has no dependencies, not even ps-bench.
    let stable = std::env::var("PS_STABLE_ARTIFACTS").is_ok_and(|v| v == "1");
    let t = if stable {
        ps_lint::StageTimings {
            files: analysis.timings.files,
            fns: analysis.timings.fns,
            ..Default::default()
        }
    } else {
        analysis.timings
    };
    out.push_str(&format!(
        "  \"timings_us\": {{\"read_parse\": {}, \"token_rules\": {}, \"graph\": {}, \
         \"passes\": {}, \"total\": {}}}\n}}",
        t.read_parse_us, t.token_rules_us, t.graph_us, t.passes_us, t.total_us
    ));
    println!("{out}");
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// GitHub workflow commands require percent-encoding of `%`, CR and LF
/// in the message body.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}
