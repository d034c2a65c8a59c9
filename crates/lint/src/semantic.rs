//! The inter-procedural passes over the workspace call graph: N001
//! (nondeterminism taint), P001 (panic-path audit), R001 (dropped
//! fallibility). Token rules D001–D006 catch hazards at the leaf site;
//! these passes catch them *flowing* — a wall-clock read laundered
//! through a helper, an `unwrap` four calls below `Framework::heal`.
//!
//! | rule | property proven when clean |
//! |------|----------------------------|
//! | N001 | no nondeterminism source reaches an artifact/trace/schedule sink through any call chain |
//! | P001 | no panic-capable site is reachable from the heal/invoke hot-path entry set |
//! | R001 | no `let _ =` silently discards a fallible result in non-test code |
//!
//! Suppression composes with the call graph: an `allow(N001)` **at the
//! source site** declares a sanctioned boundary — taint stops there and
//! the allow is accounted as used. Leaf-level `allow(D002)`/`allow(D003)`
//! do *not* stop taint: a site may be excused for existing and still be
//! audited for where its value flows. P001/R001 findings are suppressed
//! at the flagged site like any token rule.

use crate::callgraph::{CallKind, FileUnit, Graph};
use crate::rules::{allow_covers, Finding};
use std::collections::BTreeSet;

/// The hot-path entry set for P001: public operations the ROADMAP calls
/// production-critical. A panic anywhere in their call cone turns a
/// survivable fault into a crashed adaptation pass.
///
/// (`World::run`/`run_until` drive the invoke/dispatch event loop; the
/// paper's "invoke" surface has no single fn in this codebase.)
pub const HOT_PATH_ENTRIES: &[&str] = &[
    "Framework::heal",
    "Framework::heal_next",
    "GenericServer::connect",
    "World::run",
    "World::run_until",
    "Planner::solve",
];

/// Self types whose methods count as N001 sinks: trace emission
/// (`Tracer`/`Span`/`Registry`/`TraceSink`) and virtual-time
/// scheduling (`Engine`). Artifact writers (`fs::write`/`File::create`
/// in a body) are sinks by fact, not by type.
const SINK_TYPES: &[&str] = &["Tracer", "Span", "Registry", "TraceSink", "Engine"];

/// One semantic finding, addressed to a file unit by index.
pub struct SemanticFinding {
    /// Index into the unit list.
    pub file: usize,
    /// The finding (rule, line, message, chain).
    pub finding: Finding,
}

/// Runs all three passes. `entries` is the P001 entry set: the
/// workspace run passes [`HOT_PATH_ENTRIES`], fixture tests their own,
/// and every entry must resolve.
pub fn run_passes(graph: &Graph, units: &[FileUnit], entries: &[&str]) -> Vec<SemanticFinding> {
    let mut out = Vec::new();
    pass_n001(graph, units, &mut out);
    pass_p001(graph, units, entries, &mut out);
    pass_r001(graph, &mut out);
    out
}

/// Whether a node is test code (a `#[test]`/`#[cfg(test)]` fn or any fn
/// in a `tests/` file): exempt from every semantic pass.
fn is_test_node(graph: &Graph, units: &[FileUnit], node: usize) -> bool {
    let n = &graph.nodes[node];
    n.def.is_test || units[n.file].parsed.test_file
}

/// Whether line `line` of unit `file` is covered by an allow naming
/// `rule` (same coverage window as token-rule suppression).
fn line_allowed(units: &[FileUnit], file: usize, line: u32, rule: &str) -> bool {
    let unit = &units[file];
    let token_lines: BTreeSet<u32> = unit.lexed.tokens.iter().map(|t| t.line).collect();
    unit.lexed
        .allows
        .iter()
        .any(|a| a.rules.iter().any(|r| r == rule) && allow_covers(&token_lines, a.line, line))
}

// ---------------------------------------------------------------------
// N001 — nondeterminism taint
// ---------------------------------------------------------------------

/// Taints every fn containing an unsanctioned nondeterminism source,
/// propagates taint to (transitive) callers, and fires wherever a
/// tainted fn touches a sink. The printed chain is a concrete witness:
/// `source site → fn → caller → … → sink call`.
fn pass_n001(graph: &Graph, units: &[FileUnit], out: &mut Vec<SemanticFinding>) {
    // Seed: (node, source description). An allow(N001) at the source
    // site is a sanctioned boundary — emit the finding anyway (so the
    // allow is applied and accounted) but do not propagate.
    let mut tainted: Vec<Option<(usize, String)>> = vec![None; graph.nodes.len()];
    let mut queue: Vec<usize> = Vec::new();
    // parent[n] = caller-edge used to taint n: (tainted callee, line in n).
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.nodes.len()];

    for (i, node) in graph.nodes.iter().enumerate() {
        if is_test_node(graph, units, i) {
            continue;
        }
        for src in &node.sources {
            let desc = format!("{} ({}:{})", src.what, node.label, src.line);
            if line_allowed(units, node.file, src.line, "N001") {
                out.push(SemanticFinding {
                    file: node.file,
                    finding: Finding {
                        rule: "N001",
                        line: src.line,
                        message: format!(
                            "nondeterminism source `{}` — sanctioned boundary, taint stops here",
                            src.what
                        ),
                        chain: vec![desc],
                        suppressed: false,
                    },
                });
                continue;
            }
            if tainted[i].is_none() {
                tainted[i] = Some((i, desc));
                queue.push(i);
            }
        }
    }

    // Propagate source-fn → callers.
    let mut head = 0;
    while head < queue.len() {
        let n = queue[head];
        head += 1;
        for &(caller, line) in &graph.redges[n] {
            if tainted[caller].is_some() || is_test_node(graph, units, caller) {
                continue;
            }
            tainted[caller] = tainted[n].clone();
            parent[caller] = Some((n, line));
            queue.push(caller);
        }
    }

    // Fire on sink contact. One finding per (tainted fn, sink line).
    let is_sink = |node: usize| -> bool {
        graph.nodes[node]
            .def
            .self_ty
            .as_deref()
            .is_some_and(|ty| SINK_TYPES.contains(&ty))
            || !graph.nodes[node].artifacts.is_empty()
    };
    for &t in &queue {
        let node = &graph.nodes[t];
        let chain = witness_chain(graph, &tainted, &parent, t);
        // (a) the tainted fn itself writes an artifact;
        for a in &node.artifacts {
            out.push(SemanticFinding {
                file: node.file,
                finding: Finding {
                    rule: "N001",
                    line: a.line,
                    message: format!(
                        "nondeterministic value can reach artifact write `{}`: {}",
                        a.what,
                        chain.join(" → ")
                    ),
                    chain: chain.clone(),
                    suppressed: false,
                },
            });
        }
        // (b) the tainted fn calls into the trace/schedule surface.
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for call in &node.calls {
            let Some(&sink) = call.targets.iter().find(|&&t2| is_sink(t2)) else {
                continue;
            };
            if !seen_lines.insert(call.line) {
                continue;
            }
            let mut chain = chain.clone();
            chain.push(format!(
                "{} ({}:{})",
                graph.nodes[sink].qualified(),
                node.label,
                call.line
            ));
            out.push(SemanticFinding {
                file: node.file,
                finding: Finding {
                    rule: "N001",
                    line: call.line,
                    message: format!(
                        "nondeterministic value can reach sink `{}`: {}",
                        graph.nodes[sink].qualified(),
                        chain.join(" → ")
                    ),
                    chain,
                    suppressed: false,
                },
            });
        }
    }
}

/// Reconstructs `source site → fn → … → t` from the taint parents.
fn witness_chain(
    graph: &Graph,
    tainted: &[Option<(usize, String)>],
    parent: &[Option<(usize, u32)>],
    t: usize,
) -> Vec<String> {
    let Some((_, ref source_desc)) = tainted[t] else {
        return Vec::new();
    };
    // Walk t ← parent ← … ← source fn.
    let mut hops = vec![t];
    let mut cur = t;
    while let Some((child, _)) = parent[cur] {
        hops.push(child);
        cur = child;
    }
    hops.reverse(); // source fn first
    let mut chain = vec![source_desc.clone()];
    chain.extend(hops.iter().map(|&h| graph.nodes[h].qualified()));
    chain
}

// ---------------------------------------------------------------------
// P001 — panic-path audit
// ---------------------------------------------------------------------

/// Forward reachability from the hot-path entry set; every
/// panic-capable site in the cone fires with an entry→site chain. An
/// entry matching no non-test fn is itself a finding: a renamed or
/// deleted entry would otherwise shrink the audited cone in silence.
fn pass_p001(graph: &Graph, units: &[FileUnit], entries: &[&str], out: &mut Vec<SemanticFinding>) {
    let mut reach: Vec<bool> = vec![false; graph.nodes.len()];
    // parent[n] = (caller, line of the call in caller) for chain print.
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.nodes.len()];
    let mut queue: Vec<usize> = Vec::new();

    for entry in entries {
        let defs = graph.find(entry);
        if defs.iter().all(|&e| is_test_node(graph, units, e)) {
            // The fault is in the entry set, not at a source line:
            // reported at the head of the first file, where no allow
            // can cover it.
            out.push(SemanticFinding {
                file: 0,
                finding: Finding {
                    rule: "P001",
                    line: 0,
                    message: format!(
                        "hot-path entry `{entry}` matches no non-test fn: \
                         fix the P001 entry set, its panic cone is not audited"
                    ),
                    chain: vec![(*entry).to_owned()],
                    suppressed: false,
                },
            });
        }
        for e in defs {
            if !reach[e] {
                reach[e] = true;
                queue.push(e);
            }
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let n = queue[head];
        head += 1;
        for &(callee, line) in &graph.edges[n] {
            if reach[callee] || graph.nodes[callee].def.is_test {
                continue;
            }
            reach[callee] = true;
            parent[callee] = Some((n, line));
            queue.push(callee);
        }
    }

    for &n in &queue {
        let node = &graph.nodes[n];
        if node.def.is_test || node.panics.is_empty() {
            continue;
        }
        // Chain: entry → … → n.
        let mut hops = vec![n];
        let mut cur = n;
        while let Some((caller, _)) = parent[cur] {
            hops.push(caller);
            cur = caller;
        }
        hops.reverse();
        let chain: Vec<String> = hops.iter().map(|&h| graph.nodes[h].qualified()).collect();
        for p in &node.panics {
            out.push(SemanticFinding {
                file: node.file,
                finding: Finding {
                    rule: "P001",
                    line: p.line,
                    message: format!(
                        "panic-capable `{}` on hot path: {} ({}:{})",
                        p.what,
                        chain.join(" → "),
                        node.label,
                        p.line
                    ),
                    chain: chain.clone(),
                    suppressed: false,
                },
            });
        }
    }
}

// ---------------------------------------------------------------------
// R001 — dropped fallibility
// ---------------------------------------------------------------------

/// Flags `let _ = …;` discards whose right side is fallible: every
/// resolved workspace candidate returns `Result` or is `#[must_use]`,
/// or a std fallible method (`send`/`recv`/`lock`/`flush`/…) is called.
/// `write!`-family drops are exempt (`fmt::Write` to a `String` cannot
/// fail). Statement-position drops are rustc's `unused_must_use` job —
/// `let _ =` is exactly the spelling that silences rustc, so it is the
/// one this pass audits.
fn pass_r001(graph: &Graph, out: &mut Vec<SemanticFinding>) {
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.def.is_test {
            continue;
        }
        let _ = i;
        for d in &node.drops {
            if d.fmt_macro {
                continue;
            }
            // A workspace call inside the span whose candidates are all
            // fallible/must_use.
            let mut culprit: Option<(String, &'static str)> = None;
            for call in &node.calls {
                if call.tok < d.span.0 || call.tok >= d.span.1 || call.targets.is_empty() {
                    continue;
                }
                let all_result = call.targets.iter().all(|&t| graph.nodes[t].returns_result);
                let all_must_use = call.targets.iter().all(|&t| graph.nodes[t].def.must_use);
                if all_result {
                    culprit = Some((callee_label(&call.kind), "returns Result"));
                    break;
                }
                if all_must_use {
                    culprit = Some((callee_label(&call.kind), "is #[must_use]"));
                    break;
                }
            }
            if culprit.is_none() {
                if let Some(m) = d.std_fallible.first() {
                    culprit = Some((format!(".{m}()"), "returns a std Result"));
                }
            }
            let Some((what, why)) = culprit else {
                continue;
            };
            out.push(SemanticFinding {
                file: node.file,
                finding: Finding {
                    rule: "R001",
                    line: d.line,
                    message: format!(
                        "`let _ =` silently discards fallible call `{what}` ({why}) in {}",
                        node.qualified()
                    ),
                    chain: vec![node.qualified()],
                    suppressed: false,
                },
            });
        }
    }
}

/// Display label for a call site.
fn callee_label(kind: &CallKind) -> String {
    match kind {
        CallKind::Plain(n) => format!("{n}()"),
        CallKind::Method { name, .. } => format!(".{name}()"),
        CallKind::Path(segs) => format!("{}()", segs.join("::")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Graph;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn units(files: &[(&str, &str)]) -> Vec<FileUnit> {
        files
            .iter()
            .map(|(label, src)| {
                let lexed = lex(src);
                let parsed = parse_file(label, &lexed);
                FileUnit {
                    label: (*label).to_owned(),
                    lexed,
                    parsed,
                }
            })
            .collect()
    }

    #[test]
    fn n001_laundered_taint_fires_with_chain() {
        // Wall-clock read laundered through a helper before reaching a
        // trace sink: no single token rule can see this.
        let u = units(&[(
            "crates/x/src/a.rs",
            r#"
            struct Tracer;
            impl Tracer { fn observe(&self, v: u64) { drop(v); } }
            fn read_clock() -> u64 {
                // ps-lint: allow(D002): leaf excused — flow still audited
                std::time::Instant::now().elapsed().as_micros() as u64
            }
            fn launder() -> u64 { read_clock() }
            fn emit(t: &Tracer) { t.observe(launder()); }
            "#,
        )]);
        let g = Graph::build(&u);
        let findings = run_passes(&g, &u, &[]);
        let n001: Vec<_> = findings
            .iter()
            .filter(|f| f.finding.rule == "N001")
            .collect();
        assert_eq!(n001.len(), 1, "exactly one sink contact");
        let chain = &n001[0].finding.chain;
        assert!(chain[0].starts_with("Instant::now"));
        assert_eq!(
            &chain[1..],
            &[
                "read_clock".to_owned(),
                "launder".to_owned(),
                "emit".to_owned(),
                "Tracer::observe (crates/x/src/a.rs:9)".to_owned(),
            ]
        );
    }

    #[test]
    fn n001_allow_at_source_stops_taint() {
        let u = units(&[(
            "crates/x/src/a.rs",
            r#"
            struct Tracer;
            impl Tracer { fn observe(&self, v: u64) { drop(v); } }
            fn read_clock() -> u64 {
                // ps-lint: allow(N001): sanctioned boundary for this test
                std::time::Instant::now().elapsed().as_micros() as u64
            }
            fn emit(t: &Tracer) { t.observe(read_clock()); }
            "#,
        )]);
        let g = Graph::build(&u);
        let findings = run_passes(&g, &u, &[]);
        let n001: Vec<_> = findings
            .iter()
            .filter(|f| f.finding.rule == "N001")
            .collect();
        // One finding at the source (for allow accounting), none at the
        // sink: taint stopped.
        assert_eq!(n001.len(), 1);
        assert!(n001[0].finding.message.contains("sanctioned boundary"));
        assert_eq!(n001[0].finding.line, 6);
    }

    #[test]
    fn p001_reports_entry_chain() {
        let u = units(&[(
            "crates/x/src/a.rs",
            r#"
            struct Framework;
            impl Framework {
                fn heal(&mut self) { helper(); }
            }
            fn helper() { deep(); }
            fn deep() { let v: Option<u32> = None; v.unwrap(); }
            fn unreachable_fn() { let v: Option<u32> = None; v.unwrap(); }
            "#,
        )]);
        let g = Graph::build(&u);
        let findings = run_passes(&g, &u, &["Framework::heal"]);
        let p001: Vec<_> = findings
            .iter()
            .filter(|f| f.finding.rule == "P001")
            .collect();
        assert_eq!(p001.len(), 1, "only the reachable unwrap fires");
        assert_eq!(
            p001[0].finding.chain,
            vec!["Framework::heal", "helper", "deep"]
        );
    }

    #[test]
    fn r001_flags_result_drop_not_fmt() {
        let u = units(&[(
            "crates/x/src/a.rs",
            r#"
            use std::fmt::Write as _;
            fn fallible() -> Result<u32, String> { Ok(1) }
            fn go() {
                let _ = fallible();
                let mut s = String::new();
                let _ = writeln!(s, "ok");
            }
            "#,
        )]);
        let g = Graph::build(&u);
        let findings = run_passes(&g, &u, &[]);
        let r001: Vec<_> = findings
            .iter()
            .filter(|f| f.finding.rule == "R001")
            .collect();
        assert_eq!(r001.len(), 1);
        assert_eq!(r001[0].finding.line, 5);
        assert!(r001[0].finding.message.contains("fallible()"));
    }

    #[test]
    fn test_code_is_exempt() {
        let u = units(&[(
            "crates/x/src/a.rs",
            r#"
            #[cfg(test)]
            mod tests {
                fn fallible() -> Result<u32, String> { Ok(1) }
                #[test]
                fn t() {
                    let _ = fallible();
                    let x = std::time::Instant::now();
                    drop(x);
                }
            }
            "#,
        )]);
        let g = Graph::build(&u);
        let findings = run_passes(&g, &u, &[]);
        assert!(findings.is_empty());
    }
}
