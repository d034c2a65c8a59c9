//! The determinism rule engine: D001–D006 over a lexed token stream.
//!
//! Every rule is a lexical heuristic — deliberately simple, tuned so
//! that the workspace's real hazards fire and ordinary ordered code does
//! not. Escapes are explicit: a `// ps-lint: allow(D00x): <reason>`
//! comment on the preceding (or same) line suppresses a finding, and the
//! suppression inventory is auditable via `ps-lint --list-allows`.
//!
//! | rule | hazard |
//! |------|--------|
//! | D001 | order-observable iteration over `HashMap`/`HashSet` |
//! | D002 | wall-clock reads (`Instant::now`, `SystemTime`, …) |
//! | D003 | unseeded randomness / ambient entropy |
//! | D004 | unordered parallel reduction (spawns, channels) |
//! | D005 | order-sensitive float accumulation over unordered iteration |
//! | D006 | process-wide mutable state (`static mut`, `thread_local!`, atomic/lock/lazy-cell `static`s) |

use crate::lexer::{lex, Allow, Token, TokenKind};
use std::collections::BTreeSet;

/// Iteration methods that expose element order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Idents that, appearing later in the same statement, certify the
/// iteration result is (re)ordered before anything can observe it.
const SORT_HINTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Reduction terminators whose result does not depend on visit order
/// (modulo float non-associativity, which D005 handles separately).
const ORDER_INSENSITIVE: &[&str] = &[
    "sum", "product", "fold", "count", "len", "min", "max", "any", "all", "contains",
];

/// Unseeded-randomness / ambient-entropy identifiers.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "RandomState",
    "DefaultHasher",
    "OsRng",
    "getrandom",
];

/// Type names whose `static` items are process-wide mutable state
/// (D006), besides every `Atomic*`.
const PROCESS_STATE_TYPES: &[&str] = &["Mutex", "RwLock", "OnceLock", "OnceCell", "LazyLock"];

/// One finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule ID (`D001`..`D006`, or `D000` for a malformed suppression).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human explanation of the hazard at this site.
    pub message: String,
    /// Whether an `allow` comment covers it.
    pub suppressed: bool,
    /// For semantic rules (N001/P001/R001): the witness call chain,
    /// source/entry first. Empty for token rules.
    pub chain: Vec<String>,
}

/// A suppression found in a file, with usage accounting.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// The parsed comment.
    pub allow: Allow,
    /// How many findings it silenced.
    pub used: usize,
}

/// Everything the engine learned about one file.
#[derive(Debug)]
pub struct FileReport {
    /// Path label (workspace-relative where possible).
    pub path: String,
    /// All findings, suppressed ones included, sorted by (line, rule).
    pub findings: Vec<Finding>,
    /// Suppression inventory for `--list-allows`.
    pub allows: Vec<AllowRecord>,
}

impl FileReport {
    /// Findings not silenced by an allow.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }
}

/// Runs the token rules over one file's source text. (The semantic
/// rules need the whole workspace; see [`crate::analyze_workspace`].)
pub fn scan_source(path: &str, source: &str) -> FileReport {
    let lexed = lex(source);
    let mut findings = token_findings(&lexed);
    findings.sort_by_key(|f| (f.line, f.rule));

    let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut allows: Vec<AllowRecord> = lexed
        .allows
        .into_iter()
        .map(|allow| AllowRecord { allow, used: 0 })
        .collect();
    apply_allows(&mut findings, &mut allows, &token_lines);

    FileReport {
        path: path.to_owned(),
        findings,
        allows,
    }
}

/// Runs only the token rules over a pre-lexed file, without applying
/// suppressions — the workspace analyzer merges these with the semantic
/// findings and applies allows once over the union.
pub(crate) fn token_findings(lexed: &crate::lexer::Lexed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let hash_idents = hash_typed_idents(toks);
    let float_idents = float_typed_idents(toks);
    let mut findings: Vec<Finding> = Vec::new();
    for (line, what) in &lexed.malformed {
        findings.push(Finding {
            rule: "D000",
            line: *line,
            message: format!("malformed ps-lint suppression: {what}"),
            suppressed: false,
            chain: Vec::new(),
        });
    }
    scan_iteration(toks, &hash_idents, &float_idents, &mut findings);
    scan_wallclock(toks, &mut findings);
    scan_entropy(toks, &mut findings);
    scan_parallel(toks, &mut findings);
    scan_process_state(toks, &mut findings);
    findings
}

/// Whether an allow comment on `allow_line` covers a finding on
/// `finding_line`: its own line, or the next token-bearing line after
/// it.
pub(crate) fn allow_covers(
    token_lines: &BTreeSet<u32>,
    allow_line: u32,
    finding_line: u32,
) -> bool {
    let next_code_line = token_lines
        .range(allow_line + 1..)
        .next()
        .copied()
        .unwrap_or(u32::MAX);
    finding_line == allow_line || finding_line == next_code_line
}

/// Applies suppressions over a finding set, accounting usage on each
/// allow. D000 (malformed suppression) cannot itself be suppressed.
pub(crate) fn apply_allows(
    findings: &mut [Finding],
    allows: &mut [AllowRecord],
    token_lines: &BTreeSet<u32>,
) {
    for finding in findings.iter_mut() {
        if finding.rule == "D000" {
            continue;
        }
        for rec in allows.iter_mut() {
            if allow_covers(token_lines, rec.allow.line, finding.line)
                && rec.allow.rules.iter().any(|r| r == finding.rule)
            {
                finding.suppressed = true;
                rec.used += 1;
                break;
            }
        }
    }
}

/// Collects identifiers whose declared type (or initializer) is a
/// `HashMap`/`HashSet`, including through `type` aliases defined in the
/// same file.
fn hash_typed_idents(toks: &[Token]) -> BTreeSet<String> {
    typed_idents(toks, &["HashMap", "HashSet"])
}

/// Collects identifiers whose declared type (or initializer) names one
/// of `type_names`, including through `type` aliases defined in the same
/// file. Shared by D001 (hash containers) and the semantic passes (map
/// indexing in P001).
pub(crate) fn typed_idents(toks: &[Token], type_names: &[&str]) -> BTreeSet<String> {
    let mut hash_types: BTreeSet<String> = type_names.iter().map(|s| s.to_string()).collect();

    // Alias pass: `type Alias = ... HashMap<...>;`
    for i in 0..toks.len() {
        if toks[i].is_ident("type") && i + 1 < toks.len() && toks[i + 1].kind == TokenKind::Ident {
            let alias = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(';') {
                if toks[j].kind == TokenKind::Ident && hash_types.contains(&toks[j].text) {
                    hash_types.insert(alias.clone());
                    break;
                }
                j += 1;
            }
        }
    }

    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || !hash_types.contains(&toks[i].text) {
            continue;
        }
        // Walk back over type-position tokens to the `:` (declaration /
        // struct field / parameter) or `=` (inferred let binding), then
        // take the identifier just before it.
        let mut j = i;
        let mut hops = 0;
        while j > 0 && hops < 12 {
            j -= 1;
            hops += 1;
            let t = &toks[j];
            if t.is_punct(':') || t.is_punct('=') {
                // Skip a doubled colon (path separator): not a decl.
                if t.is_punct(':') && j > 0 && toks[j - 1].is_punct(':') {
                    j -= 1;
                    continue;
                }
                let mut k = j;
                while k > 0 {
                    k -= 1;
                    let p = &toks[k];
                    if p.is_ident("mut") || p.is_ident("ref") {
                        continue;
                    }
                    if p.kind == TokenKind::Ident
                        && !p.is_ident("let")
                        && !p.is_ident("static")
                        && !p.is_ident("const")
                    {
                        out.insert(p.text.clone());
                    }
                    break;
                }
                break;
            }
            // Tokens that may legitimately sit between the name and the
            // hash type: path segments, wrappers, references.
            let type_ish = matches!(t.kind, TokenKind::Ident | TokenKind::Lifetime)
                || "<>&(),".contains(t.text.as_str())
                || t.is_punct(':');
            if !type_ish {
                break;
            }
        }
    }
    out
}

/// Collects identifiers declared as floats (`: f64`, `: f32`, or
/// initialized from a float literal) — used by D005's accumulator check.
fn float_typed_idents(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        let is_float_ty = toks[i].is_ident("f64") || toks[i].is_ident("f32");
        let is_float_lit = toks[i].kind == TokenKind::Literal
            && toks[i].text.contains('.')
            && toks[i]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit());
        if !is_float_ty && !is_float_lit {
            continue;
        }
        if i >= 2
            && (toks[i - 1].is_punct(':') || toks[i - 1].is_punct('='))
            && !(i >= 3 && toks[i - 2].is_punct(':'))
        {
            let mut k = i - 1;
            while k > 0 {
                k -= 1;
                let p = &toks[k];
                if p.is_ident("mut") {
                    continue;
                }
                if p.kind == TokenKind::Ident && !p.is_ident("let") {
                    out.insert(p.text.clone());
                }
                break;
            }
        }
    }
    out
}

/// D001 + D005: iteration over hash containers.
fn scan_iteration(
    toks: &[Token],
    hash_idents: &BTreeSet<String>,
    float_idents: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    // Method-chain form: `recv.iter()`, `recv.keys()`, ...
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if i + 1 >= toks.len() || !toks[i + 1].is_punct('(') || i == 0 || !toks[i - 1].is_punct('.')
        {
            continue;
        }
        let chain = receiver_chain(toks, i - 1);
        let Some(recv) = chain.iter().find(|id| hash_idents.contains(*id)) else {
            continue;
        };
        let trailing = statement_tail(toks, i);
        if contains_any(&trailing, SORT_HINTS) {
            continue;
        }
        if let Some(term) = trailing
            .iter()
            .find(|t| ORDER_INSENSITIVE.contains(&t.text.as_str()))
        {
            // Order-insensitive reduction — except float accumulation,
            // where addition order changes the low bits (D005).
            if is_float_reduction(&trailing, term) {
                findings.push(Finding {
                    rule: "D005",
                    line: t.line,
                    message: format!(
                        "float accumulation over unordered `{recv}` iteration — \
                         the sum depends on hash order; collect and sort first, \
                         or switch `{recv}` to a BTreeMap/BTreeSet"
                    ),
                    suppressed: false,
                    chain: Vec::new(),
                });
            }
            continue;
        }
        findings.push(Finding {
            rule: "D001",
            line: t.line,
            message: format!(
                "`.{}()` over HashMap/HashSet-typed `{recv}` leaks hash iteration \
                 order — sort the result, or switch `{recv}` to a BTreeMap/BTreeSet",
                t.text
            ),
            suppressed: false,
            chain: Vec::new(),
        });
    }

    // `for pat in expr` form (no iteration method present).
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        let Some(in_idx) = find_for_in(toks, i) else {
            i += 1;
            continue;
        };
        let Some(body_open) = find_loop_body(toks, in_idx) else {
            i += 1;
            continue;
        };
        let expr = &toks[in_idx + 1..body_open];
        let has_range = expr
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_punct('.'));
        let hash_rooted = expr
            .iter()
            .find(|t| t.kind == TokenKind::Ident && hash_idents.contains(&t.text));
        let sorted = contains_any(expr, SORT_HINTS);
        if let Some(recv) = hash_rooted {
            if !has_range && !sorted {
                let has_iter_method = expr
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text.as_str()));
                if !has_iter_method {
                    findings.push(Finding {
                        rule: "D001",
                        line: toks[i].line,
                        message: format!(
                            "`for` over HashMap/HashSet-typed `{}` leaks hash iteration \
                             order — iterate a sorted copy or switch to a BTreeMap/BTreeSet",
                            recv.text
                        ),
                        suppressed: false,
                        chain: Vec::new(),
                    });
                }
                // D005: float accumulation inside the unordered loop body.
                if let Some(body_close) = matching_brace(toks, body_open) {
                    for b in body_open + 1..body_close.saturating_sub(1) {
                        if toks[b].is_punct('+') && toks[b + 1].is_punct('=') {
                            let target = receiver_chain(toks, b);
                            if target.iter().any(|id| float_idents.contains(id)) {
                                findings.push(Finding {
                                    rule: "D005",
                                    line: toks[b].line,
                                    message: format!(
                                        "float `+=` inside a loop over unordered `{}` — \
                                         accumulation order follows hash order",
                                        recv.text
                                    ),
                                    suppressed: false,
                                    chain: Vec::new(),
                                });
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// D002: wall-clock access.
fn scan_wallclock(toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            findings.push(Finding {
                rule: "D002",
                line: t.line,
                message: "`Instant::now()` outside the wall-clock accounting whitelist — \
                          use `ps_trace::wallclock::WallTimer` (recording-only) or virtual time"
                    .to_owned(),
                suppressed: false,
                chain: Vec::new(),
            });
        }
        if t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
            findings.push(Finding {
                rule: "D002",
                line: t.line,
                message: format!(
                    "`{}` — the simulator runs on virtual time; wall-clock types are \
                     banned outside `ps_trace::wallclock`",
                    t.text
                ),
                suppressed: false,
                chain: Vec::new(),
            });
        }
    }
}

/// D003: unseeded randomness / ambient entropy.
fn scan_entropy(toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            findings.push(Finding {
                rule: "D003",
                line: t.line,
                message: format!(
                    "`{}` draws ambient entropy — every random stream must come from \
                     `ps_sim::Rng::seed_from_u64` (or a `derive`d child) so runs replay",
                    t.text
                ),
                suppressed: false,
                chain: Vec::new(),
            });
        }
        if t.is_ident("random")
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks
                .get(i.wrapping_sub(3))
                .is_some_and(|t| t.is_ident("rand"))
        {
            findings.push(Finding {
                rule: "D003",
                line: t.line,
                message: "`rand::random` is unseeded — use `ps_sim::Rng`".to_owned(),
                suppressed: false,
                chain: Vec::new(),
            });
        }
    }
}

/// D004: thread spawns and channel construction (unordered reduction
/// hazards) — the merge order of concurrent producers must be proven
/// deterministic and annotated.
fn scan_parallel(toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let is_decl = i > 0 && toks[i - 1].is_ident("fn");
        if is_decl || !called {
            continue;
        }
        if t.is_ident("spawn") {
            findings.push(Finding {
                rule: "D004",
                line: t.line,
                message: "thread spawn — if results are merged, the reduction must be \
                          slot-indexed or sorted (annotate with the proof if it is)"
                    .to_owned(),
                suppressed: false,
                chain: Vec::new(),
            });
        }
        if t.is_ident("channel") || t.is_ident("sync_channel") {
            findings.push(Finding {
                rule: "D004",
                line: t.line,
                message: "channel construction — receiver drain order tracks thread \
                          timing; collected results must be re-sorted deterministically"
                    .to_owned(),
                suppressed: false,
                chain: Vec::new(),
            });
        }
        if t.is_ident("par_iter") || t.is_ident("into_par_iter") || t.is_ident("par_bridge") {
            findings.push(Finding {
                rule: "D004",
                line: t.line,
                message: "parallel iterator — reduction order is nondeterministic".to_owned(),
                suppressed: false,
                chain: Vec::new(),
            });
        }
    }
}

/// D006: process-wide mutable state — `static mut`, `thread_local!`, and
/// `static` items of an `Atomic*`, lock or lazily initialized cell type.
/// What such state holds depends on what else ran in the process first,
/// so one seed replayed twice in one process (a test binary's threads, a
/// fuzzer's replays) stops producing the same bytes.
fn scan_process_state(toks: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let next = toks.get(i + 1);
        let what = if t.is_ident("thread_local") && next.is_some_and(|n| n.is_punct('!')) {
            Some("`thread_local!`".to_owned())
        } else if t.is_ident("static") && next.is_some_and(|n| n.is_ident("mut")) {
            Some("`static mut`".to_owned())
        } else if t.is_ident("static") {
            toks[i + 1..]
                .iter()
                .take_while(|n| !n.is_punct('=') && !n.is_punct(';'))
                .find(|n| {
                    n.kind == TokenKind::Ident
                        && (n.text.starts_with("Atomic")
                            || PROCESS_STATE_TYPES.contains(&n.text.as_str()))
                })
                .map(|n| format!("a `static` of type `{}`", n.text))
        } else {
            None
        };
        if let Some(what) = what {
            findings.push(Finding {
                rule: "D006",
                line: t.line,
                message: format!(
                    "{what} is process-wide mutable state — what it holds depends on \
                     what else ran in the process; keep the state in the value that \
                     owns it (a world, a server, a memo)"
                ),
                suppressed: false,
                chain: Vec::new(),
            });
        }
    }
}

/// Walks the dotted receiver chain left of token index `dot` (which must
/// be a `.` or the first token after the chain), returning every plain
/// identifier in it (`self.state.pending` → `[pending, state, self]`).
pub(crate) fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = dot; // points at the `.` (or one past the chain end)
    loop {
        if j == 0 {
            break;
        }
        j -= 1;
        match toks[j].kind {
            TokenKind::Ident => {
                out.push(toks[j].text.clone());
                // Continue through `.` or `::` separators.
                if j >= 1 && toks[j - 1].is_punct('.') {
                    j -= 1;
                    continue;
                }
                if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                    j -= 2;
                    continue;
                }
                break;
            }
            TokenKind::Punct => {
                let c = toks[j].text.as_bytes()[0] as char;
                if c == ')' || c == ']' {
                    // Balance back over the call/index and keep walking.
                    let open = if c == ')' { '(' } else { '[' };
                    let mut depth = 1;
                    while j > 0 && depth > 0 {
                        j -= 1;
                        if toks[j].is_punct(c) {
                            depth += 1;
                        } else if toks[j].is_punct(open) {
                            depth -= 1;
                        }
                    }
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    out
}

/// The tokens from `from` to the end of the statement (`;` at depth 0,
/// an unbalanced closer, or a block opener), capped for safety.
fn statement_tail(toks: &[Token], from: usize) -> Vec<Token> {
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    for t in toks.iter().skip(from).take(300) {
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes()[0] as char {
                '(' | '[' => depth += 1,
                ')' | ']' => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ';' if depth == 0 => break,
                '{' | '}' if depth == 0 => break,
                _ => {}
            }
        }
        out.push(t.clone());
    }
    out
}

/// Whether any token is one of the given identifiers.
fn contains_any(toks: &[Token], idents: &[&str]) -> bool {
    toks.iter()
        .any(|t| t.kind == TokenKind::Ident && idents.contains(&t.text.as_str()))
}

/// Whether an order-insensitive terminator is actually a float
/// reduction: `sum::<f64>()`, `product::<f32>()`, or `fold(0.0, ...)`.
fn is_float_reduction(trailing: &[Token], term: &Token) -> bool {
    let pos = trailing
        .iter()
        .position(|t| std::ptr::eq(t, term))
        .unwrap_or(0);
    let next: Vec<&Token> = trailing.iter().skip(pos + 1).take(4).collect();
    if term.is_ident("sum") || term.is_ident("product") {
        return next.iter().any(|t| t.is_ident("f64") || t.is_ident("f32"));
    }
    if term.is_ident("fold") {
        return next.iter().any(|t| {
            t.kind == TokenKind::Literal
                && (t.text.contains('.') || t.text.contains("f6") || t.text.contains("f3"))
        });
    }
    false
}

/// Index of the `in` keyword of a `for` loop starting at `for_idx`.
fn find_for_in(toks: &[Token], for_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks.iter().enumerate().skip(for_idx + 1).take(80) {
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes()[0] as char {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' | ';' => return None, // not a for-in after all
                _ => {}
            }
        }
        if depth == 0 && t.is_ident("in") {
            return Some(off);
        }
    }
    None
}

/// Index of the loop-body `{` after the `in` expression.
fn find_loop_body(toks: &[Token], in_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks.iter().enumerate().skip(in_idx + 1).take(200) {
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes()[0] as char {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => return Some(off),
                ';' if depth == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes()[0] as char {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(off);
                    }
                }
                _ => {}
            }
        }
    }
    None
}
