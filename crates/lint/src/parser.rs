//! A lightweight item parser over the token stream: enough structure to
//! build a workspace call graph, no more.
//!
//! The lexer ([`crate::lexer`]) strips comments and strings; this module
//! recovers the *item tree* from the flat token stream — `mod` nesting,
//! `impl`/`trait` blocks, `use` imports, and `fn` definitions with their
//! body token ranges and return types. It is deliberately not a full
//! Rust parser (the build is offline, so no `syn`): expressions stay
//! flat tokens, generics are skipped, and the handful of constructs the
//! semantic passes need are recovered by brace-tracking a single linear
//! walk. The output feeds [`crate::callgraph`].

use crate::lexer::{Lexed, Token, TokenKind};

/// One parsed function (or method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any (`HealReport` for
    /// `impl fmt::Display for HealReport`, trait name inside `trait`).
    pub self_ty: Option<String>,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body: `(open_brace, close_brace)`.
    /// `None` for bodiless trait method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the declared return type mentions `Result` (directly or
    /// via a workspace `type` alias resolved by the call-graph builder).
    pub returns_result: bool,
    /// Raw identifiers of the return type (for alias resolution).
    pub return_idents: Vec<String>,
    /// Whether the fn carries `#[must_use]`.
    pub must_use: bool,
    /// Whether the fn is test code: `#[test]`, `#[cfg(test)]`, inside a
    /// `#[cfg(test)] mod`, or in a file under `tests/`.
    pub is_test: bool,
}

impl FnDef {
    /// Display name: `Type::name` for methods, `name` for free fns.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `use` import: `alias` is the name visible in the module,
/// `path` the full segment list it stands for.
#[derive(Debug, Clone)]
pub struct Import {
    /// Module path the `use` sits in.
    pub module: Vec<String>,
    /// Locally visible name (last segment, or the `as` rename).
    pub alias: String,
    /// Full path segments (`["ps_net", "ScopedRoutes"]`).
    pub path: Vec<String>,
}

/// One `type Alias = ...;` declaration (for `returns_result` through
/// aliases like `type PlanResult = Result<Plan, PlanError>;`).
#[derive(Debug, Clone)]
pub struct TypeAlias {
    /// Alias name.
    pub name: String,
    /// Whether the aliased type mentions `Result`.
    pub is_result: bool,
}

/// The item tree recovered from one file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path label.
    pub label: String,
    /// Crate the file belongs to (underscored package name).
    pub krate: String,
    /// Functions in source order.
    pub fns: Vec<FnDef>,
    /// `use` imports.
    pub imports: Vec<Import>,
    /// `type` aliases.
    pub aliases: Vec<TypeAlias>,
    /// Whether the whole file is test code (under a `tests/` root).
    pub test_file: bool,
}

/// What a `{` on the frame stack belongs to.
#[derive(Debug)]
enum Frame {
    /// Inline `mod name {`; `test` when `#[cfg(test)]`-gated.
    Module { test: bool },
    /// `impl`/`trait` block with the self type it defines methods on.
    Impl { prev_ty: Option<String> },
    /// A function body; index into `ParsedFile::fns`.
    Fn { idx: usize, prev_fn: Option<usize> },
    /// Any other brace (struct/enum/match/expr blocks).
    Other,
}

/// Derives the crate label and module path from a workspace-relative
/// path: `crates/core/src/heal.rs` → (`ps_core`, `["heal"]`).
pub fn path_context(label: &str) -> (String, Vec<String>, bool) {
    let parts: Vec<&str> = label.split(['/', '\\']).collect();
    let mut test_file = false;
    let (krate, rest): (String, &[&str]) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        let pkg = format!("ps_{}", crate_dir_to_pkg(parts[1]));
        if parts.get(2) == Some(&"src") {
            (pkg, &parts[3..])
        } else {
            // crates/<x>/tests/... — integration tests of that crate.
            test_file = parts.get(2) == Some(&"tests");
            (pkg, &parts[3..])
        }
    } else if parts.first() == Some(&"src") {
        ("partitionable_services".to_owned(), &parts[1..])
    } else if parts.first() == Some(&"tests") {
        test_file = true;
        ("tests".to_owned(), &parts[1..])
    } else if parts.first() == Some(&"examples") {
        ("examples".to_owned(), &parts[1..])
    } else {
        ("unknown".to_owned(), &parts[..])
    };
    let mut module: Vec<String> = Vec::new();
    for (i, part) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = part.trim_end_matches(".rs");
            if stem != "lib" && stem != "main" && stem != "mod" {
                module.push(stem.to_owned());
            }
        } else {
            module.push((*part).to_owned());
        }
    }
    (krate, module, test_file)
}

/// `crates/<dir>` directory names to package-name suffixes where they
/// differ (`netmodel` builds `ps-net`).
fn crate_dir_to_pkg(dir: &str) -> &str {
    match dir {
        "netmodel" => "net",
        other => other,
    }
}

/// Parses the item tree out of a lexed file.
pub fn parse_file(label: &str, lexed: &Lexed) -> ParsedFile {
    let (krate, file_module, test_file) = path_context(label);
    let toks = &lexed.tokens;
    let mut out = ParsedFile {
        label: label.to_owned(),
        krate,
        fns: Vec::new(),
        imports: Vec::new(),
        aliases: Vec::new(),
        test_file,
    };

    let mut stack: Vec<Frame> = Vec::new();
    let mut module_path = file_module;
    let mut cur_ty: Option<String> = None;
    let mut cur_fn: Option<usize> = None;
    // Attributes seen since the last item boundary.
    let mut attr_test = false;
    let mut attr_must_use = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokenKind::Punct if t.is_punct('#') => {
                // Attribute: `#[...]` or `#![...]` — skip balanced, note
                // `test` / `cfg(test)` / `must_use`.
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_punct('!') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('[') {
                    let mut depth = 0i32;
                    let start = j;
                    while j < toks.len() {
                        if toks[j].is_punct('[') {
                            depth += 1;
                        } else if toks[j].is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let body = &toks[start..j.min(toks.len())];
                    if body.iter().any(|t| t.is_ident("test")) {
                        attr_test = true;
                    }
                    if body.iter().any(|t| t.is_ident("must_use")) {
                        attr_must_use = true;
                    }
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            TokenKind::Ident if t.text == "mod" => {
                // `mod name {` opens an inline module; `mod name;` is a
                // file-module declaration (the file walk covers it).
                if i + 2 < toks.len()
                    && toks[i + 1].kind == TokenKind::Ident
                    && toks[i + 2].is_punct('{')
                {
                    module_path.push(toks[i + 1].text.clone());
                    stack.push(Frame::Module { test: attr_test });
                    attr_test = false;
                    attr_must_use = false;
                    i += 3;
                    continue;
                }
                attr_test = false;
                attr_must_use = false;
                i += 1;
            }
            TokenKind::Ident if t.text == "impl" || t.text == "trait" => {
                let is_trait = t.text == "trait";
                let Some((self_ty, open)) = parse_impl_header(toks, i, is_trait) else {
                    i += 1;
                    continue;
                };
                stack.push(Frame::Impl {
                    prev_ty: cur_ty.take(),
                });
                cur_ty = Some(self_ty);
                attr_test = false;
                attr_must_use = false;
                i = open + 1;
                continue;
            }
            TokenKind::Ident if t.text == "use" => {
                parse_use(toks, i, &module_path, &mut out.imports);
                while i < toks.len() && !toks[i].is_punct(';') {
                    i += 1;
                }
                attr_test = false;
                attr_must_use = false;
                i += 1;
            }
            TokenKind::Ident if t.text == "type" => {
                // `type Alias = ...;` (skip associated `type X;` decls).
                if i + 1 < toks.len() && toks[i + 1].kind == TokenKind::Ident {
                    let name = toks[i + 1].text.clone();
                    let mut j = i + 2;
                    let mut is_result = false;
                    while j < toks.len() && !toks[j].is_punct(';') {
                        if toks[j].is_ident("Result") {
                            is_result = true;
                        }
                        j += 1;
                    }
                    out.aliases.push(TypeAlias { name, is_result });
                    i = j + 1;
                } else {
                    i += 1;
                }
                attr_test = false;
                attr_must_use = false;
            }
            TokenKind::Ident if t.text == "fn" => {
                let in_test_scope = test_file
                    || attr_test
                    || stack
                        .iter()
                        .any(|f| matches!(f, Frame::Module { test: true }));
                if let Some((def, after)) = parse_fn(
                    toks,
                    i,
                    cur_ty.clone(),
                    &module_path,
                    in_test_scope,
                    attr_must_use,
                ) {
                    let has_body = def.body.is_some();
                    let body_open = def.body.map(|(o, _)| o);
                    out.fns.push(def);
                    let idx = out.fns.len() - 1;
                    if has_body {
                        stack.push(Frame::Fn {
                            idx,
                            prev_fn: cur_fn,
                        });
                        cur_fn = Some(idx);
                        i = body_open.unwrap_or(after) + 1;
                    } else {
                        i = after;
                    }
                } else {
                    i += 1;
                }
                attr_test = false;
                attr_must_use = false;
            }
            TokenKind::Punct if t.is_punct('{') => {
                stack.push(Frame::Other);
                i += 1;
            }
            TokenKind::Punct if t.is_punct('}') => {
                match stack.pop() {
                    Some(Frame::Module { .. }) => {
                        module_path.pop();
                    }
                    Some(Frame::Impl { prev_ty }) => {
                        cur_ty = prev_ty;
                    }
                    Some(Frame::Fn { idx, prev_fn }) => {
                        // Close the body range at this token.
                        if let Some((open, _)) = out.fns[idx].body {
                            out.fns[idx].body = Some((open, i));
                        }
                        cur_fn = prev_fn;
                    }
                    _ => {}
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

/// Parses an `impl`/`trait` header starting at `kw`, returning the self
/// type name and the index of the opening `{`.
fn parse_impl_header(toks: &[Token], kw: usize, is_trait: bool) -> Option<(String, usize)> {
    let mut j = kw + 1;
    // Skip `<...>` generics (angle depth; `<<`/`>>` never appear in
    // generic position here).
    if j < toks.len() && toks[j].is_punct('<') {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Walk to the `{`, remembering the last identifier at angle-depth 0
    // before it; `for` resets (the self type follows it), `where` stops
    // collection. A `;` first means an `impl Trait for X;`-style stub or
    // associated decl — skip.
    let mut last_ident: Option<String> = None;
    let mut angle = 0i32;
    let mut in_where = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // The `>` of a `->` arrow (e.g. `where F: Fn() -> bool`)
            // does not close an angle bracket.
            if !(j > 0 && toks[j - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if t.is_punct('{') && angle <= 0 {
            return last_ident.map(|ty| (ty, j));
        } else if t.is_punct(';') {
            return None;
        } else if t.kind == TokenKind::Ident && angle <= 0 && !in_where {
            if t.text == "for" && !is_trait {
                last_ident = None; // self type comes next
            } else if t.text == "where" {
                in_where = true; // bounds follow; keep what we have
            } else if t.text != "dyn" && t.text != "mut" && t.text != "const" {
                // Path segments overwrite, so `fmt::Display` ends at
                // `Display` and `&mut Type` at `Type`.
                last_ident = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Parses a `fn` item starting at `kw`, returning the definition and the
/// token index *after* the signature (body `{` or trailing `;`).
fn parse_fn(
    toks: &[Token],
    kw: usize,
    self_ty: Option<String>,
    module: &[String],
    is_test: bool,
    must_use: bool,
) -> Option<(FnDef, usize)> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Scan the signature: track () and <> depth; collect return-type
    // idents between `->` and the body `{` (or `;`).
    let mut j = kw + 2;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut in_return = false;
    let mut return_idents = Vec::new();
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokenKind::Punct => {
                let c = t.text.as_bytes()[0] as char;
                match c {
                    '(' | '[' => paren += 1,
                    ')' | ']' => paren -= 1,
                    '<' if paren == 0 => angle += 1,
                    '>' if paren == 0 => {
                        // `->` arrow: previous token is `-`.
                        if j > 0 && toks[j - 1].is_punct('-') {
                            if paren == 0 && angle == 0 {
                                in_return = true;
                            }
                        } else {
                            angle -= 1;
                        }
                    }
                    '{' if paren == 0 && angle <= 0 => {
                        let def = FnDef {
                            name,
                            self_ty,
                            module: module.to_vec(),
                            line: toks[kw].line,
                            body: Some((j, j)), // close patched at pop
                            returns_result: return_idents.iter().any(|s| s == "Result"),
                            return_idents,
                            must_use,
                            is_test,
                        };
                        return Some((def, j));
                    }
                    ';' if paren == 0 && angle <= 0 => {
                        let def = FnDef {
                            name,
                            self_ty,
                            module: module.to_vec(),
                            line: toks[kw].line,
                            body: None,
                            returns_result: return_idents.iter().any(|s| s == "Result"),
                            return_idents,
                            must_use,
                            is_test,
                        };
                        return Some((def, j + 1));
                    }
                    _ => {}
                }
            }
            TokenKind::Ident if in_return => {
                if t.text == "where" {
                    in_return = false;
                } else {
                    return_idents.push(t.text.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `use` declaration starting at `kw` into flat imports,
/// expanding `{...}` groups and `as` renames. Glob imports are dropped
/// (the resolver falls back to same-crate lookup anyway).
fn parse_use(toks: &[Token], kw: usize, module: &[String], out: &mut Vec<Import>) {
    // Collect tokens to the `;`.
    let mut end = kw + 1;
    let mut depth = 0i32;
    while end < toks.len() {
        if toks[end].is_punct('{') {
            depth += 1;
        } else if toks[end].is_punct('}') {
            depth -= 1;
        } else if toks[end].is_punct(';') && depth <= 0 {
            break;
        }
        end += 1;
    }
    let body = &toks[kw + 1..end.min(toks.len())];
    parse_use_item(body, 0, &[], module, out);
}

/// Recursive descent over one `use` item (`path`, `path as x`,
/// `path::{item, item}`, `path::*`) starting at token `i` with the path
/// segments accumulated so far in `prefix`. Returns the index just past
/// the item (pointing at `,`, `}`, or the end).
fn parse_use_item(
    toks: &[Token],
    mut i: usize,
    prefix: &[String],
    module: &[String],
    out: &mut Vec<Import>,
) -> usize {
    let mut path: Vec<String> = prefix.to_vec();
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            if t.text == "as" {
                if let Some(alias) = toks.get(i + 1) {
                    emit_import(alias.text.clone(), &path, module, out);
                }
                return i + 2;
            }
            path.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') {
            i += 1; // `::` arrives as two `:` tokens; both skipped
        } else if t.is_punct('{') {
            i += 1;
            loop {
                i = parse_use_item(toks, i, &path, module, out);
                match toks.get(i) {
                    Some(t) if t.is_punct(',') => i += 1,
                    Some(t) if t.is_punct('}') => return i + 1,
                    _ => return i.max(toks.len()),
                }
            }
        } else if t.is_punct('*') {
            return i + 1; // glob: dropped (resolver falls back per-crate)
        } else {
            break; // `,` or `}` — end of this item
        }
    }
    if path.len() > prefix.len() {
        // `use a::b::{self, c}`: `self` names the prefix itself.
        if path.last().is_some_and(|s| s == "self") {
            path.pop();
        }
        if let Some(alias) = path.last().cloned() {
            emit_import(alias, &path, module, out);
        }
    }
    i
}

/// Records one resolved import.
fn emit_import(alias: String, path: &[String], module: &[String], out: &mut Vec<Import>) {
    out.push(Import {
        module: module.to_vec(),
        alias,
        path: path.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(label: &str, src: &str) -> ParsedFile {
        parse_file(label, &lex(src))
    }

    #[test]
    fn fn_and_impl_structure() {
        let src = r#"
            pub struct Healer { x: u32 }
            impl Healer {
                pub fn heal(&mut self) -> Result<u32, String> {
                    self.step();
                    Ok(self.x)
                }
                fn step(&mut self) {}
            }
            fn free() -> u32 { 7 }
        "#;
        let p = parse("crates/core/src/heal.rs", src);
        assert_eq!(p.krate, "ps_core");
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["Healer::heal", "Healer::step", "free"]);
        assert!(p.fns[0].returns_result);
        assert!(!p.fns[2].returns_result);
        assert!(p.fns.iter().all(|f| !f.is_test));
        // Body ranges are real and nested correctly.
        let (o, c) = p.fns[0].body.unwrap();
        assert!(o < c);
    }

    #[test]
    fn trait_impls_and_test_mods() {
        let src = r#"
            impl fmt::Display for Report {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
            }
            trait Planner {
                fn plan(&self) -> u32;
                fn describe(&self) -> u32 { self.plan() }
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() { assert!(true); }
            }
        "#;
        let p = parse("crates/planner/src/lib.rs", src);
        let fmt = &p.fns[0];
        assert_eq!(fmt.self_ty.as_deref(), Some("Report"));
        assert!(fmt.returns_result); // fmt::Result is an alias but names Result
        let plan = &p.fns[1];
        assert_eq!(plan.self_ty.as_deref(), Some("Planner"));
        assert!(plan.body.is_none());
        let check = p.fns.iter().find(|f| f.name == "check").unwrap();
        assert!(check.is_test);
        assert_eq!(check.module, vec!["tests"]);
    }

    #[test]
    fn use_groups_and_renames() {
        let src = "use ps_net::{Network, route::{build as mk, ScopedRoutes}};\nuse std::fmt;\n";
        let p = parse("crates/core/src/lib.rs", src);
        let mut pairs: Vec<(String, Vec<String>)> = p
            .imports
            .iter()
            .map(|i| (i.alias.clone(), i.path.clone()))
            .collect();
        pairs.sort();
        assert!(pairs.contains(&(
            "Network".to_owned(),
            vec!["ps_net".to_owned(), "Network".to_owned()]
        )));
        assert!(pairs
            .iter()
            .any(|(a, p)| a == "mk" && p.ends_with(&["route".to_owned(), "build".to_owned()])));
        assert!(pairs.iter().any(|(a, _)| a == "ScopedRoutes"));
        assert!(pairs.iter().any(|(a, _)| a == "fmt"));
    }

    #[test]
    fn module_path_from_file_layout() {
        let (k, m, t) = path_context("crates/netmodel/src/route_table.rs");
        assert_eq!(k, "ps_net");
        assert_eq!(m, vec!["route_table"]);
        assert!(!t);
        let (k, m, t) = path_context("crates/spec/src/parser/xml.rs");
        assert_eq!(k, "ps_spec");
        assert_eq!(m, vec!["parser", "xml"]);
        assert!(!t);
        let (_, _, t) = path_context("tests/chaos_properties.rs");
        assert!(t);
        let (_, _, t) = path_context("crates/trace/tests/percentiles.rs");
        assert!(t);
    }

    #[test]
    fn type_alias_result_detection() {
        let src = "type PlanResult = Result<Plan, PlanError>;\ntype Id = u64;\n";
        let p = parse("crates/planner/src/lib.rs", src);
        assert_eq!(p.aliases.len(), 2);
        assert!(p.aliases[0].is_result);
        assert!(!p.aliases[1].is_result);
    }
}
