//! The workspace call graph: symbol resolution over the parsed item
//! tree plus per-function facts (call sites, panic sites, entropy
//! sources, dropped results) for the semantic passes.
//!
//! Resolution is deliberately conservative in both directions:
//!
//! * **Precise where Rust is precise.** Plain calls resolve only through
//!   the caller's module scope and `use` imports; `self.m()` resolves
//!   only inside the surrounding `impl`'s type; `Type::m()` resolves by
//!   type name. No global name soup.
//! * **Under-approximating on ambient method names.** A non-`self`
//!   method call resolves to every workspace method of that name —
//!   *except* names on the std-prelude deny list (`STD_METHODS`),
//!   where a workspace match is overwhelmingly more likely to be a
//!   false edge (`.len()`, `.get()`, …) than a real one. The passes
//!   document this: a hot-path helper should not be named `get`.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::parser::{FnDef, ParsedFile};
use crate::rules::{receiver_chain, typed_idents};
use std::collections::{BTreeMap, BTreeSet};

/// Method names so common on std types that name-only resolution to a
/// workspace method would be noise. Calls to these resolve to no edge
/// unless made through `self` or a `Type::name` path.
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chars",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "endswith",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "into_keys",
    "into_values",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "log2",
    "map",
    "map_err",
    "map_or",
    "max",
    "min",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partition",
    "peekable",
    "pop",
    "position",
    "powi",
    "powf",
    "push",
    "push_str",
    "range",
    "remove",
    "repeat",
    "replace",
    "resize",
    "retain",
    "rev",
    "reverse",
    "round",
    "rsplit",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_off",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "take",
    "take_while",
    "then",
    "then_some",
    "to_lowercase",
    "to_owned",
    "to_string",
    "to_uppercase",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "zip",
];

/// Keywords that look like plain calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "break", "continue", "as", "in", "let", "mut",
    "ref", "move", "async", "await", "fn", "impl", "else", "unsafe", "dyn", "where", "pub", "use",
    "mod", "type", "struct", "enum", "trait", "const", "static", "box", "yield",
];

/// Panic-family macros (P001).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Formatting macros whose `Result` is conventionally dropped when the
/// target is a `String` (`fmt::Write` to a `String` cannot fail). R001
/// exempts `let _ =` drops of these by design.
const FMT_MACROS: &[&str] = &[
    "write", "writeln", "print", "println", "eprint", "eprintln", "format",
];

/// Std methods that return a `Result`/`LockResult` worth not dropping.
const STD_FALLIBLE: &[&str] = &[
    "send", "try_send", "recv", "try_recv", "lock", "try_lock", "flush",
];

/// How a call site names its callee.
#[derive(Debug, Clone)]
pub enum CallKind {
    /// `name(...)` — resolved through module scope and imports.
    Plain(String),
    /// `recv.name(...)` — `on_self` when the receiver chain roots at
    /// `self`.
    Method { name: String, on_self: bool },
    /// `a::b::name(...)` — full segment list, `name` last.
    Path(Vec<String>),
}

impl CallKind {
    /// The bare callee name.
    pub fn name(&self) -> &str {
        match self {
            CallKind::Plain(n) => n,
            CallKind::Method { name, .. } => name,
            CallKind::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
        }
    }
}

/// One call site inside a function body, with its resolved candidates.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// 1-based line.
    pub line: u32,
    /// Token index of the callee name (ties R001 drop spans to calls).
    pub tok: usize,
    /// Syntactic shape.
    pub kind: CallKind,
    /// Candidate callees in the workspace (node indices). Empty for
    /// std/external calls.
    pub targets: Vec<usize>,
    /// Whether this is a statement-position call whose value is
    /// discarded (`foo(x);` at block level).
    pub bare_stmt: bool,
}

/// A site that can panic at runtime (P001).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// Human label: `.unwrap()`, `panic!`, `map index pending[...]`.
    pub what: String,
}

/// A nondeterminism source read (N001).
#[derive(Debug, Clone)]
pub struct SourceSite {
    /// 1-based line.
    pub line: u32,
    /// Source label: `Instant::now`, `thread_rng`, ….
    pub what: String,
}

/// A `let _ = …;` discard (R001), with the token span of its RHS.
#[derive(Debug, Clone)]
pub struct DropSite {
    /// 1-based line of the `let`.
    pub line: u32,
    /// Token range of the discarded expression (exclusive end).
    pub span: (usize, usize),
    /// A fmt-family macro (`write!`/`writeln!`/…) appears in the span.
    pub fmt_macro: bool,
    /// Std fallible method names (`lock`, `send`, …) called in the span.
    pub std_fallible: Vec<String>,
}

/// One function node: parsed definition plus extracted facts.
#[derive(Debug)]
pub struct Node {
    /// The parsed definition.
    pub def: FnDef,
    /// Index of the owning file in the unit list.
    pub file: usize,
    /// Workspace-relative path label of the owning file.
    pub label: String,
    /// Owning crate (package-name form, e.g. `ps_net`).
    pub krate: String,
    /// Calls made by the body, resolution included.
    pub calls: Vec<ResolvedCall>,
    /// Panic-capable sites in the body.
    pub panics: Vec<PanicSite>,
    /// Nondeterminism sources read by the body.
    pub sources: Vec<SourceSite>,
    /// Artifact-file writes in the body (`fs::write`, `File::create`) —
    /// N001 sinks by fact.
    pub artifacts: Vec<SourceSite>,
    /// `let _ =` discards in the body.
    pub drops: Vec<DropSite>,
    /// Whether the return type names `Result` (directly or via a
    /// workspace `type` alias).
    pub returns_result: bool,
}

impl Node {
    /// Display name: `Type::name` or `name`.
    pub fn qualified(&self) -> String {
        self.def.qualified()
    }
}

/// One lexed+parsed file, the unit the graph builds over.
pub struct FileUnit {
    /// Workspace-relative path label.
    pub label: String,
    /// Lexed tokens + allows.
    pub lexed: Lexed,
    /// Parsed item tree.
    pub parsed: ParsedFile,
}

/// The workspace call graph.
pub struct Graph {
    /// All functions, files in scan order, source order within a file.
    pub nodes: Vec<Node>,
    /// Forward edges: `edges[f]` = (callee node, call line) pairs.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Reverse edges: `redges[g]` = (caller node, call line) pairs.
    pub redges: Vec<Vec<(usize, u32)>>,
}

impl Graph {
    /// Builds the graph over the given files: indexes symbols, extracts
    /// per-function facts, resolves every call site.
    pub fn build(units: &[FileUnit]) -> Graph {
        // Pass 0: workspace-wide Result aliases (fmt::Result etc. come
        // from std, but local `type PlanResult = Result<…>` counts too).
        let mut result_aliases: BTreeSet<String> = BTreeSet::new();
        result_aliases.insert("Result".to_owned());
        for unit in units {
            for alias in &unit.parsed.aliases {
                if alias.is_result {
                    result_aliases.insert(alias.name.clone());
                }
            }
        }

        // Pass 1: the node table.
        let mut nodes: Vec<Node> = Vec::new();
        for (file, unit) in units.iter().enumerate() {
            for def in &unit.parsed.fns {
                let returns_result = def.returns_result
                    || def.return_idents.iter().any(|i| result_aliases.contains(i));
                nodes.push(Node {
                    def: def.clone(),
                    file,
                    label: unit.label.clone(),
                    krate: unit.parsed.krate.clone(),
                    calls: Vec::new(),
                    panics: Vec::new(),
                    sources: Vec::new(),
                    artifacts: Vec::new(),
                    drops: Vec::new(),
                    returns_result,
                });
            }
        }

        let index = SymbolIndex::build(&nodes);

        // Pass 2: facts + resolution, file by file.
        let mut cursor = 0usize;
        for unit in units {
            let count = unit.parsed.fns.len();
            extract_file_facts(unit, &mut nodes[cursor..cursor + count], cursor, &index);
            cursor += count;
        }

        // Pass 3: edge lists.
        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes.len()];
        let mut redges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes.len()];
        for (from, node) in nodes.iter().enumerate() {
            for call in &node.calls {
                for &to in &call.targets {
                    edges[from].push((to, call.line));
                    redges[to].push((from, call.line));
                }
            }
        }
        Graph {
            nodes,
            edges,
            redges,
        }
    }

    /// Nodes matching a qualified name: `Type::name` or a bare `name`
    /// (free functions only for the bare form).
    pub fn find(&self, qualified: &str) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.qualified() == qualified {
                out.push(i);
            }
        }
        out
    }
}

/// Symbol index for resolution.
struct SymbolIndex {
    /// Free functions by (crate, module path joined with `::`, name).
    free: BTreeMap<(String, String, String), Vec<usize>>,
    /// Free functions by (crate, name) — same-crate fallback when the
    /// name is unique (covers glob imports and re-exports).
    free_in_crate: BTreeMap<(String, String), Vec<usize>>,
    /// Methods by (self type, name).
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Methods by bare name (non-`self` method-call fallback).
    methods_by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolIndex {
    fn build(nodes: &[Node]) -> SymbolIndex {
        let mut free = BTreeMap::new();
        let mut free_in_crate = BTreeMap::new();
        let mut methods = BTreeMap::new();
        let mut methods_by_name = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let krate = node.krate.clone();
            match &node.def.self_ty {
                Some(ty) => {
                    methods
                        .entry((ty.clone(), node.def.name.clone()))
                        .or_insert_with(Vec::new)
                        .push(i);
                    methods_by_name
                        .entry(node.def.name.clone())
                        .or_insert_with(Vec::new)
                        .push(i);
                }
                None => {
                    free.entry((
                        krate.clone(),
                        node.def.module.join("::"),
                        node.def.name.clone(),
                    ))
                    .or_insert_with(Vec::new)
                    .push(i);
                    free_in_crate
                        .entry((krate, node.def.name.clone()))
                        .or_insert_with(Vec::new)
                        .push(i);
                }
            }
        }
        SymbolIndex {
            free,
            free_in_crate,
            methods,
            methods_by_name,
        }
    }

    /// Resolves one call in the context of `caller`.
    fn resolve(
        &self,
        kind: &CallKind,
        caller: &FnDef,
        krate: &str,
        imports: &ImportMap,
    ) -> Vec<usize> {
        match kind {
            CallKind::Method { name, on_self } => {
                if *on_self {
                    if let Some(ty) = &caller.self_ty {
                        if let Some(hits) = self.methods.get(&(ty.clone(), name.clone())) {
                            return hits.clone();
                        }
                    }
                    // `self.helper()` with no impl-local match: fall
                    // through to the by-name lookup (trait methods
                    // implemented in a different impl block).
                }
                if STD_METHODS.contains(&name.as_str()) {
                    return Vec::new();
                }
                self.methods_by_name.get(name).cloned().unwrap_or_default()
            }
            CallKind::Path(segs) => self.resolve_path(segs, caller, krate, imports),
            CallKind::Plain(name) => {
                // Module scope first.
                if let Some(hits) =
                    self.free
                        .get(&(krate.to_owned(), caller.module.join("::"), name.clone()))
                {
                    return hits.clone();
                }
                // Imports next.
                if let Some(path) = imports.get(name) {
                    let resolved = self.resolve_path(path, caller, krate, imports);
                    if !resolved.is_empty() {
                        return resolved;
                    }
                }
                // Same-crate unique fallback.
                if let Some(hits) = self.free_in_crate.get(&(krate.to_owned(), name.clone())) {
                    if hits.len() == 1 {
                        return hits.clone();
                    }
                }
                Vec::new()
            }
        }
    }

    /// Resolves a `a::b::name` path call.
    fn resolve_path(
        &self,
        segs: &[String],
        caller: &FnDef,
        krate: &str,
        imports: &ImportMap,
    ) -> Vec<usize> {
        if segs.is_empty() {
            return Vec::new();
        }
        // Expand a leading import alias (`use ps_net::route_table;` then
        // `route_table::build(...)`).
        let mut segs: Vec<String> = segs.to_vec();
        if segs.len() >= 2 {
            if let Some(path) = imports.get(&segs[0]) {
                let mut expanded = path.clone();
                expanded.extend(segs[1..].iter().cloned());
                segs = expanded;
            }
        }
        let name = segs.last().cloned().unwrap_or_default();
        if segs.len() == 1 {
            return self.resolve(&CallKind::Plain(name), caller, krate, imports);
        }
        let qualifier = &segs[segs.len() - 2];

        // `Self::name` → current impl type.
        let qualifier = if qualifier == "Self" {
            match &caller.self_ty {
                Some(ty) => ty.clone(),
                None => return Vec::new(),
            }
        } else {
            qualifier.clone()
        };

        // Type-qualified method / associated fn.
        if let Some(hits) = self.methods.get(&(qualifier.clone(), name.clone())) {
            return hits.clone();
        }

        // Module-qualified free fn: crate-local forms first.
        let target_crate = if segs[0] == "crate" || segs[0] == "self" || segs[0] == "super" {
            krate.to_owned()
        } else if segs[0].starts_with("ps_") || segs[0] == "partitionable_services" {
            segs[0].clone()
        } else {
            krate.to_owned()
        };
        // Match free fns whose module path *ends with* the qualifier
        // segments (minus crate-ish leaders).
        let mod_segs: Vec<&String> = segs[..segs.len() - 1]
            .iter()
            .filter(|s| {
                *s != "crate"
                    && *s != "self"
                    && *s != "super"
                    && !s.starts_with("ps_")
                    && *s != "partitionable_services"
            })
            .collect();
        let mut out = Vec::new();
        for ((k, module, n), hits) in &self.free {
            if *n != name || *k != target_crate {
                continue;
            }
            let module_segs: Vec<&str> = if module.is_empty() {
                Vec::new()
            } else {
                module.split("::").collect()
            };
            let matches = mod_segs.is_empty()
                || (module_segs.len() >= mod_segs.len()
                    && module_segs[module_segs.len() - mod_segs.len()..]
                        .iter()
                        .zip(mod_segs.iter())
                        .all(|(a, b)| *a == b.as_str()));
            if matches {
                out.extend_from_slice(hits);
            }
        }
        // A capitalized qualifier that matched no workspace (type, name)
        // pair names a std or dependency type; resolving by bare name
        // would fabricate cross-type edges, so leave it external.
        out
    }
}

/// Per-file alias → path import map.
type ImportMap = BTreeMap<String, Vec<String>>;

/// Extracts facts for every fn of one file and resolves their calls.
/// `base` is the node index of the file's first fn.
fn extract_file_facts(unit: &FileUnit, nodes: &mut [Node], base: usize, index: &SymbolIndex) {
    let toks = &unit.lexed.tokens;
    let map_idents = typed_idents(toks, &["HashMap", "BTreeMap"]);
    let krate = unit.parsed.krate.clone();

    let imports: ImportMap = unit
        .parsed
        .imports
        .iter()
        .map(|i| (i.alias.clone(), i.path.clone()))
        .collect();

    // Body ranges, for innermost-fn attribution.
    let ranges: Vec<Option<(usize, usize)>> = nodes.iter().map(|n| n.def.body).collect();

    for fi in 0..nodes.len() {
        let Some((open, close)) = ranges[fi] else {
            continue;
        };
        // Child ranges strictly inside this body: skip them during the
        // walk so nested fns own their sites.
        let children: Vec<(usize, usize)> = ranges
            .iter()
            .enumerate()
            .filter_map(|(gi, r)| r.filter(|&(o, c)| gi != fi && o > open && c < close))
            .collect();

        let mut facts = FileFacts::default();
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, cend)) = children.iter().find(|&&(co, _)| co == i) {
                // i is the open brace of a nested fn's body: skip past
                // it so the nested fn owns its own sites. (Signature
                // tokens are still walked; the `fn`-keyword guard keeps
                // the nested name from counting as a call.)
                i = cend + 1;
                continue;
            }
            scan_token(toks, i, close, &map_idents, &mut facts);
            i += 1;
        }

        let def = nodes[fi].def.clone();
        // A plain name passed as an argument that the fn also uses as a
        // value (`let plan = …`, `plan.graph`, a `plan: &Plan` parameter)
        // is a local binding, not the workspace fn of that name.
        let sig = (1..open)
            .rev()
            .find(|&k| toks[k - 1].is_ident("fn") && toks[k].is_ident(&def.name))
            .unwrap_or(open);
        facts.calls.retain(|(tok, _, kind, _)| {
            !(matches!(kind, CallKind::Plain(_))
                && !toks[tok + 1].is_punct('(')
                && used_as_value(toks, sig, close, &toks[*tok].text))
        });
        let calls: Vec<ResolvedCall> = facts
            .calls
            .into_iter()
            .map(|(tok, line, kind, bare_stmt)| {
                let targets = index.resolve(&kind, &def, &krate, &imports);
                // Self-recursion edges add nothing to reachability and
                // muddy chains.
                let targets: Vec<usize> = targets.into_iter().filter(|&t| t != base + fi).collect();
                ResolvedCall {
                    line,
                    tok,
                    kind,
                    targets,
                    bare_stmt,
                }
            })
            .collect();
        let node = &mut nodes[fi];
        node.panics = facts.panics;
        node.sources = facts.sources;
        node.artifacts = facts.artifacts;
        node.drops = facts.drops;
        node.calls = calls;
    }
}

/// Facts accumulated over one body walk.
#[derive(Default)]
struct FileFacts {
    calls: Vec<(usize, u32, CallKind, bool)>,
    panics: Vec<PanicSite>,
    sources: Vec<SourceSite>,
    artifacts: Vec<SourceSite>,
    drops: Vec<DropSite>,
}

/// Inspects the token at `i` inside a body ending at `close`.
fn scan_token(
    toks: &[Token],
    i: usize,
    close: usize,
    map_idents: &BTreeSet<String>,
    facts: &mut FileFacts,
) {
    let t = &toks[i];
    if t.kind != TokenKind::Ident {
        return;
    }
    let next = toks.get(i + 1);

    // `let _ = …;` discard.
    if t.text == "let"
        && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
    {
        let start = i + 3;
        let mut j = start;
        let mut depth = 0i32;
        while j < close {
            let tj = &toks[j];
            if tj.kind == TokenKind::Punct {
                match tj.text.as_bytes()[0] as char {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    ';' if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let span = &toks[start..j.min(close)];
        let fmt_macro = span.windows(2).any(|w| {
            w[0].kind == TokenKind::Ident
                && FMT_MACROS.contains(&w[0].text.as_str())
                && w[1].is_punct('!')
        });
        let std_fallible: Vec<String> = span
            .windows(2)
            .filter(|w| {
                w[0].kind == TokenKind::Ident
                    && STD_FALLIBLE.contains(&w[0].text.as_str())
                    && w[1].is_punct('(')
            })
            .map(|w| w[0].text.clone())
            .collect();
        facts.drops.push(DropSite {
            line: t.line,
            span: (start, j.min(close)),
            fmt_macro,
            std_fallible,
        });
        return;
    }

    // Macro call: `name!(…)` / `name![…]` / `name!{…}`.
    if next.is_some_and(|n| n.is_punct('!'))
        && toks
            .get(i + 2)
            .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
    {
        if PANIC_MACROS.contains(&t.text.as_str()) {
            facts.panics.push(PanicSite {
                line: t.line,
                what: format!("{}!", t.text),
            });
        }
        return;
    }

    // Map indexing: `pending[…]` / `state.pending[…]` where the indexed
    // ident is HashMap/BTreeMap-typed (panics on a missing key).
    if next.is_some_and(|n| n.is_punct('[')) && map_idents.contains(&t.text) {
        facts.panics.push(PanicSite {
            line: t.line,
            what: format!("map index `{}[…]`", t.text),
        });
        return;
    }

    // Nondeterminism sources.
    if t.text == "Instant"
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
    {
        facts.sources.push(SourceSite {
            line: t.line,
            what: "Instant::now".to_owned(),
        });
    }
    if t.text == "SystemTime" || t.text == "UNIX_EPOCH" {
        facts.sources.push(SourceSite {
            line: t.line,
            what: t.text.clone(),
        });
    }
    if matches!(
        t.text.as_str(),
        "thread_rng" | "from_entropy" | "RandomState" | "DefaultHasher" | "OsRng" | "getrandom"
    ) {
        facts.sources.push(SourceSite {
            line: t.line,
            what: t.text.clone(),
        });
    }

    // Artifact writes: `fs::write(...)` / `File::create(...)`.
    let path_call = |a: &str, b: &str| -> bool {
        t.text == a
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(b))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
    };
    if path_call("fs", "write") || path_call("File", "create") {
        facts.artifacts.push(SourceSite {
            line: t.line,
            what: format!("{}::{}", t.text, toks[i + 3].text),
        });
    }

    // A fn passed by name: a bare ident or path in argument position
    // (`.map(helper)`, `engine.run(&mut s, handle)`) is an edge to the fn
    // it names, resolved like a call. A plain name on the std deny list
    // is more likely a local binding (`len`, `next`) than a workspace fn.
    if next.is_some_and(|n| n.is_punct(')') || n.is_punct(',')) {
        let (segs, start) = path_back(toks, i);
        let in_args = start
            .checked_sub(1)
            .is_some_and(|p| toks[p].is_punct('(') || toks[p].is_punct(','));
        if in_args && !(segs.len() == 1 && STD_METHODS.contains(&segs[0].as_str())) {
            let kind = if segs.len() == 1 {
                CallKind::Plain(t.text.clone())
            } else {
                CallKind::Path(segs)
            };
            facts.calls.push((i, t.line, kind, false));
        }
        return;
    }

    // Call sites: ident followed by `(`.
    if !next.is_some_and(|n| n.is_punct('(')) {
        return;
    }
    let prev = i.checked_sub(1).map(|p| &toks[p]);
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return; // nested fn definition's name
    }
    if CALL_KEYWORDS.contains(&t.text.as_str()) {
        return;
    }

    let name = t.text.clone();

    // Panic-family methods.
    let is_method = prev.is_some_and(|p| p.is_punct('.'));
    if is_method
        && matches!(
            name.as_str(),
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
        )
    {
        facts.panics.push(PanicSite {
            line: t.line,
            what: format!(".{name}()"),
        });
        return;
    }

    let kind = if is_method {
        let chain = receiver_chain(toks, i - 1);
        let on_self = chain.last().is_some_and(|id| id == "self");
        CallKind::Method { name, on_self }
    } else if prev.is_some_and(|p| p.is_punct(':')) && i >= 2 && toks[i - 2].is_punct(':') {
        CallKind::Path(path_back(toks, i).0)
    } else {
        CallKind::Plain(name)
    };

    // Statement-position discard: the call's `)` is followed by `;` and
    // the chain starts at a statement boundary.
    let bare_stmt = is_bare_statement(toks, i, close);
    facts.calls.push((i, t.line, kind, bare_stmt));
}

/// Whether `name` occurs in `toks[from..to]` other than as a call
/// (`name(`), a bare argument (`(name)`, `, name,`), a path segment, a
/// field or method (`.name`), or a fn's own name. A bare argument inside
/// a pattern (`let (a, name) =`, `Some(name) =>`) binds it.
fn used_as_value(toks: &[Token], from: usize, to: usize, name: &str) -> bool {
    let punct = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    (from.max(2)..to).any(|k| {
        let argument =
            (punct(k - 1, '(') || punct(k - 1, ',')) && (punct(k + 1, ')') || punct(k + 1, ','));
        let path =
            (punct(k + 1, ':') && punct(k + 2, ':')) || (punct(k - 1, ':') && punct(k - 2, ':'));
        toks[k].is_ident(name)
            && (!argument || in_pattern(toks, from, k))
            && !path
            && !punct(k + 1, '(')
            && !punct(k - 1, '.')
            && !toks[k - 1].is_ident("fn")
    })
}

/// Whether token `k` sits in a pattern: the outermost parenthesized
/// group around it, back to the start of its statement or closure
/// parameters, is followed by `=` or `=>` (not `==`), `in`, `|` (not
/// `||`) or `:`.
fn in_pattern(toks: &[Token], from: usize, k: usize) -> bool {
    let mut depth = 0usize;
    let mut outer = None;
    for j in (from..k).rev() {
        let t = &toks[j];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            if depth == 0 {
                outer = Some(j);
            } else {
                depth -= 1;
            }
        } else if depth == 0 && [';', '{', '}', '|'].iter().any(|&c| t.is_punct(c)) {
            break;
        }
    }
    let Some(open) = outer else {
        return false;
    };
    let mut depth = 0usize;
    let close = (open..toks.len()).find(|&j| {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
        }
        depth == 0
    });
    let after = |d: usize| close.and_then(|c| toks.get(c + d));
    let single = |c: char| {
        after(1).is_some_and(|t| t.is_punct(c)) && !after(2).is_some_and(|t| t.is_punct(c))
    };
    single('=') || single('|') || after(1).is_some_and(|t| t.is_ident("in") || t.is_punct(':'))
}

/// The `::`-separated path ending at the ident token `i`, walked
/// backwards, and the token index of its first segment.
fn path_back(toks: &[Token], i: usize) -> (Vec<String>, usize) {
    let mut segs = vec![toks[i].text.clone()];
    let mut start = i;
    while start >= 3
        && toks[start - 1].is_punct(':')
        && toks[start - 2].is_punct(':')
        && toks[start - 3].kind == TokenKind::Ident
    {
        start -= 3;
        segs.push(toks[start].text.clone());
    }
    segs.reverse();
    (segs, start)
}

/// Whether the call at token `i` (ident, `(` next) is a whole statement
/// whose value is dropped: `foo(a);` / `x.foo(a);` at block level.
fn is_bare_statement(toks: &[Token], i: usize, close: usize) -> bool {
    // Forward: matching `)` then `;`.
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < close {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    if !toks.get(j + 1).is_some_and(|t| t.is_punct(';')) {
        return false;
    }
    // Backward: walk the receiver chain to its start, then require a
    // statement boundary before it.
    let mut k = i;
    loop {
        if k == 0 {
            return true;
        }
        let p = &toks[k - 1];
        if p.is_punct('.') {
            // continue through the chain: skip the expression before the
            // dot (ident, or a balanced call/index).
            if k >= 2 {
                let q = &toks[k - 2];
                if q.kind == TokenKind::Ident {
                    k -= 2;
                    continue;
                }
                if q.is_punct(')') || q.is_punct(']') {
                    let open = if q.is_punct(')') { '(' } else { '[' };
                    let closec = q.text.as_bytes()[0] as char;
                    let mut depth = 1i32;
                    let mut m = k - 2;
                    while m > 0 && depth > 0 {
                        m -= 1;
                        if toks[m].is_punct(closec) {
                            depth += 1;
                        } else if toks[m].is_punct(open) {
                            depth -= 1;
                        }
                    }
                    k = m;
                    continue;
                }
            }
            return false;
        }
        if p.is_punct(':') && k >= 2 && toks[k - 2].is_punct(':') {
            if k >= 3 && toks[k - 3].kind == TokenKind::Ident {
                k -= 3;
                continue;
            }
            return false;
        }
        if p.kind == TokenKind::Ident {
            // Direct ident before the chain start: `return foo();`,
            // `else foo();` — not a bare statement.
            return false;
        }
        return p.is_punct(';') || p.is_punct('{') || p.is_punct('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn build(files: &[(&str, &str)]) -> Graph {
        let units: Vec<FileUnit> = files
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
            .collect();
        Graph::build(&units)
    }

    #[test]
    fn plain_and_self_method_edges() {
        let g = build(&[(
            "crates/core/src/a.rs",
            r#"
            struct T;
            impl T {
                fn outer(&self) { self.inner(); helper(); }
                fn inner(&self) {}
            }
            fn helper() {}
            "#,
        )]);
        let outer = g.find("T::outer")[0];
        let callees: Vec<String> = g.edges[outer]
            .iter()
            .map(|&(to, _)| g.nodes[to].qualified())
            .collect();
        assert_eq!(callees, vec!["T::inner", "helper"]);
    }

    #[test]
    fn cross_file_path_and_import_edges() {
        let g = build(&[
            (
                "crates/core/src/a.rs",
                "use crate::util::fix;\nfn go() { fix(); crate::util::fix(); }\n",
            ),
            ("crates/core/src/util.rs", "pub fn fix() {}\n"),
        ]);
        let go = g.find("go")[0];
        assert_eq!(g.edges[go].len(), 2);
        let fix = g.find("fix")[0];
        assert!(g.edges[go].iter().all(|&(to, _)| to == fix));
    }

    #[test]
    fn std_method_names_do_not_edge() {
        let g = build(&[(
            "crates/core/src/a.rs",
            r#"
            struct S;
            impl S { fn len(&self) -> usize { 0 } }
            fn go(v: Vec<u32>) -> usize { v.len() }
            "#,
        )]);
        let go = g.find("go")[0];
        assert!(g.edges[go].is_empty(), "v.len() must not edge to S::len");
    }

    #[test]
    fn panic_source_and_drop_facts() {
        let g = build(&[(
            "crates/core/src/a.rs",
            r#"
            use std::collections::HashMap;
            fn f(m: HashMap<u32, u32>, o: Option<u32>) -> u32 {
                let t = std::time::Instant::now();
                let _ = fallible();
                let v = m[&3];
                o.unwrap() + v
            }
            fn fallible() -> Result<u32, String> { Ok(1) }
            "#,
        )]);
        let f = g.find("f")[0];
        let n = &g.nodes[f];
        assert_eq!(n.sources.len(), 1);
        assert_eq!(n.sources[0].what, "Instant::now");
        let kinds: Vec<&str> = n.panics.iter().map(|p| p.what.as_str()).collect();
        assert!(kinds.iter().any(|k| k.contains("map index")));
        assert!(kinds.iter().any(|k| k.contains(".unwrap()")));
        assert_eq!(n.drops.len(), 1);
        // The drop span covers the fallible() call.
        let drop = &n.drops[0];
        let call = n
            .calls
            .iter()
            .find(|c| c.kind.name() == "fallible")
            .unwrap();
        assert!(call.tok >= drop.span.0 && call.tok < drop.span.1);
        assert!(g.nodes[call.targets[0]].returns_result);
    }

    #[test]
    fn bare_statement_detection() {
        let g = build(&[(
            "crates/core/src/a.rs",
            r#"
            struct S;
            impl S { fn fail(&self) -> Result<(), String> { Ok(()) } }
            fn go(s: &S) {
                s.fail();
                let x = s.fail();
                drop(x);
            }
            "#,
        )]);
        let go = g.find("go")[0];
        let bare: Vec<bool> = g.nodes[go]
            .calls
            .iter()
            .filter(|c| c.kind.name() == "fail")
            .map(|c| c.bare_stmt)
            .collect();
        assert_eq!(bare, vec![true, false]);
    }
}
