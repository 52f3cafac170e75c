//! Item extraction: from a token stream to a per-file list of function
//! definitions with the facts the deep rules care about.
//!
//! For every `fn` in a file this pass records
//!
//! * its identity — crate, module path (file path + nested `mod`s),
//!   owning `impl`/`trait` type, name, definition line and body span;
//! * the **call sites** inside its body (bare, `path::qualified` and
//!   `.method(...)` calls, with the qualifier kept for resolution);
//! * the **panic sites** (`.unwrap()`, `.expect(...)`, `panic!`,
//!   `unreachable!`) and **indexing sites** (`expr[...]`), each tagged
//!   with whether a `tidy-allow` annotation covers it;
//! * the **lock acquisitions** (`.lock()` / `.read()` / `.write()` on a
//!   binding or field declared as `Mutex`/`RwLock`), with the line span
//!   the guard is held for;
//! * the `tidy:kernel-hot-loop` markers inside the body.
//!
//! This is a single forward walk over the [`crate::lex`] tokens with a
//! brace-depth counter and small stacks for `mod`/`impl`/`trait` blocks
//! and nested `fn` items — no AST, no type information. The consumers
//! ([`crate::graph`], [`crate::deep`]) are written for the resulting
//! over-approximation: call resolution is by name, so reachability can
//! only err on the side of reporting, never of missing an edge the
//! lexical structure shows.

use crate::lex::{lex, Tok, TokKind};
use crate::rules::{allowed, FileKind, SourceFile};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (`compute_sparse`, `unwrap`, `scope`).
    pub name: String,
    /// Path qualifier as written, innermost last (`crate::perf::count_x`
    /// yields `["crate", "perf"]`; bare and method calls yield `[]`).
    pub path: Vec<String>,
    /// True for `.name(...)` method-call syntax.
    pub is_method: bool,
    /// 0-based line of the call.
    pub line: usize,
}

/// A panicking construct inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// What panics (`.unwrap()`, `panic!`, …).
    pub what: &'static str,
    /// 0-based line of the site.
    pub line: usize,
    /// True when a `tidy-allow(panic)` or `tidy-allow(panic-reach)`
    /// annotation with a reason covers the site.
    pub allowed: bool,
}

/// An `expr[...]` indexing site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSite {
    /// 0-based line of the site.
    pub line: usize,
    /// True when a `tidy-allow(panic-reach)` annotation covers it.
    pub allowed: bool,
}

/// A lock acquisition inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Name of the `Mutex`/`RwLock` binding or field acquired.
    pub lock: String,
    /// 0-based line of the acquisition.
    pub line: usize,
    /// 0-based last line the guard is statically held on: the end of
    /// the enclosing block for `let guard = …` acquisitions (or the
    /// `drop(guard)` line), the acquisition line itself for temporaries.
    pub scope_end: usize,
    /// True when a `tidy-allow(lock-order)` annotation covers the site
    /// or the first line of its statement.
    pub allowed: bool,
}

/// One function definition and the facts extracted from its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative file the function is defined in.
    pub file: String,
    /// File classification (the deep rules only model `Lib` and `Shim`).
    pub kind: FileKind,
    /// Owning crate (classifier name: `core`, `data`, `shims/rand`…).
    pub crate_name: String,
    /// Module path within the crate (file path segments + nested `mod`s).
    pub module: Vec<String>,
    /// `impl`/`trait` type the function belongs to, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based (first, last) line of the body block; `first > last`
    /// means a bodyless declaration (trait method signature).
    pub body: (usize, usize),
    /// True for functions inside `#[cfg(test)]` regions.
    pub in_test: bool,
    /// True for a bare `pub fn` (not `pub(crate)`, `pub(super)` or
    /// private); trait methods never carry it.
    pub is_pub: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Indexing sites in the body.
    pub indexes: Vec<IndexSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockSite>,
    /// 0-based lines of `tidy:kernel-hot-loop` markers in the body.
    pub markers: Vec<usize>,
}

impl FnItem {
    /// `crate::module::Type::name`-style display path for diagnostics.
    pub fn display_path(&self) -> String {
        let mut parts: Vec<&str> = vec![self.crate_name.as_str()];
        parts.extend(self.module.iter().map(String::as_str));
        if let Some(owner) = &self.owner {
            parts.push(owner.as_str());
        }
        parts.push(self.name.as_str());
        parts.join("::")
    }
}

/// Keywords that look like call/index receivers but are not.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "as", "in",
    "move", "ref", "mut", "let", "static", "const", "where", "impl", "dyn", "pub", "use", "mod",
    "struct", "enum", "trait", "type", "unsafe", "async", "await", "fn", "extern",
];

/// Names whose method-call syntax acquires a lock guard.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Collects identifiers declared with a `Mutex<…>`/`RwLock<…>` type in
/// this file: `let` bindings, struct fields, statics and parameters.
///
/// For declaration position, each occurrence of a lock type is walked
/// *backwards* over wrapper types and path segments
/// (`stats: Arc<std::sync::Mutex<…>>` peels `Arc<`, `std::sync::`) to
/// the `name:` that binds it, so several fields on one line all count.
fn lock_idents(file: &SourceFile) -> Vec<String> {
    const LOCK_TYPES: &[&str] = &["Mutex<", "RwLock<"];
    let mut idents: Vec<String> = Vec::new();
    let push = |name: String, idents: &mut Vec<String>| {
        if !name.is_empty() && !idents.contains(&name) {
            idents.push(name);
        }
    };
    for line in &file.lines {
        let code = line.code.as_str();
        if !LOCK_TYPES.iter().any(|t| code.contains(t)) {
            continue;
        }
        // `let [mut] name = …` with a lock type on the line.
        if let Some(after_let) = code.trim_start().strip_prefix("let ") {
            let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let name: String = after_let
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            push(name, &mut idents);
            continue;
        }
        let chars: Vec<char> = code.chars().collect();
        for t in LOCK_TYPES {
            let mut from = 0usize;
            while let Some(p) = code[from..].find(t) {
                let abs = from + p;
                from = abs + t.len();
                // Walk backwards from the type to the binding colon
                // (char offset, not byte offset — the prefix may hold
                // non-ASCII).
                let mut j = code[..abs].chars().count();
                let take_ident_back = |j: &mut usize| {
                    while *j > 0 && (chars[*j - 1].is_alphanumeric() || chars[*j - 1] == '_') {
                        *j -= 1;
                    }
                };
                let name = loop {
                    while j > 0 && chars[j - 1].is_whitespace() {
                        j -= 1;
                    }
                    if j == 0 {
                        break None;
                    }
                    match chars[j - 1] {
                        '<' | '&' => j -= 1,
                        ':' if j >= 2 && chars[j - 2] == ':' => {
                            j -= 2;
                            take_ident_back(&mut j);
                        }
                        ':' => {
                            j -= 1;
                            while j > 0 && chars[j - 1].is_whitespace() {
                                j -= 1;
                            }
                            let end = j;
                            take_ident_back(&mut j);
                            break Some(chars[j..end].iter().collect::<String>());
                        }
                        c if c.is_alphanumeric() || c == '_' => {
                            // A wrapper-type ident (`Arc`, `mut`); peel it.
                            take_ident_back(&mut j);
                        }
                        _ => break None,
                    }
                };
                if let Some(name) = name {
                    push(name, &mut idents);
                }
            }
        }
    }
    idents
}

/// Module path implied by a workspace-relative file path: the segments
/// under `src/`, minus `lib.rs`/`mod.rs`/`main.rs` file names.
fn module_path_of(rel: &str) -> Vec<String> {
    let rest = rel
        .split_once("/src/")
        .map(|(_, r)| r)
        .unwrap_or_else(|| rel.strip_prefix("src/").unwrap_or(rel));
    let mut parts: Vec<String> = rest.split('/').map(str::to_string).collect();
    if let Some(last) = parts.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
    }
    if matches!(parts.last().map(String::as_str), Some("lib" | "mod" | "main")) {
        parts.pop();
    }
    parts
}

/// A block that changes naming context, tracked by its open depth.
struct Block {
    /// `mod` name pushed onto the module path, or `impl`/`trait` owner.
    name: String,
    /// True for `impl`/`trait` blocks (owner), false for `mod`.
    is_owner: bool,
    /// Brace depth at which the block's `{` sits.
    depth: u32,
}

/// An active (open-bodied) function during the walk.
struct ActiveFn {
    /// Index into the output items.
    item: usize,
    /// Brace depth of the body's opening `{`.
    depth: u32,
}

/// A lock guard currently statically held during the walk.
struct OpenGuard {
    /// Index into the output items.
    item: usize,
    /// Index into that item's `locks`.
    site: usize,
    /// Brace depth the binding lives at.
    depth: u32,
    /// Binding name, for `drop(name)` detection.
    binding: Option<String>,
}

/// Extracts every function item from `file`. See the module docs for
/// what is recorded; functions inside `#[cfg(test)]` regions are kept
/// (flagged `in_test`) so callers can decide scope.
pub fn extract(file: &SourceFile) -> Vec<FnItem> {
    let toks = lex(&file.lines);
    let locks = lock_idents(file);
    let base_module = module_path_of(&file.rel);

    let mut items: Vec<FnItem> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut active: Vec<ActiveFn> = Vec::new();
    let mut guards: Vec<OpenGuard> = Vec::new();
    let mut depth: u32 = 0;
    // A `fn` whose signature has been read but whose body `{` has not
    // been seen yet.
    let mut pending_fn: Option<usize> = None;

    let ident_at = |i: usize| -> Option<&str> { toks.get(i).and_then(Tok::ident) };
    let punct_at = |i: usize, c: char| -> bool { toks.get(i).is_some_and(|t| t.is_punct(c)) };

    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        match &tok.kind {
            TokKind::Ident(word) if word == "mod" => {
                if let Some(name) = ident_at(i + 1) {
                    // Only a `mod name {` block changes the path; a
                    // `mod name;` declaration points at another file.
                    if punct_at(i + 2, '{') {
                        blocks.push(Block {
                            name: name.to_string(),
                            is_owner: false,
                            depth,
                        });
                    }
                    i += 2;
                    continue;
                }
                i += 1;
            }
            TokKind::Ident(word) if word == "impl" || word == "trait" => {
                let (owner, next) = parse_owner(&toks, i, word == "trait");
                if let Some(name) = owner {
                    blocks.push(Block {
                        name,
                        is_owner: true,
                        depth,
                    });
                }
                i = next;
            }
            TokKind::Ident(word) if word == "fn" => {
                let Some(name) = ident_at(i + 1) else {
                    // `fn(...)` pointer type, not a definition.
                    i += 1;
                    continue;
                };
                let owner = blocks
                    .iter()
                    .rev()
                    .find(|b| b.is_owner)
                    .map(|b| b.name.clone());
                let mut module = base_module.clone();
                module.extend(blocks.iter().filter(|b| !b.is_owner).map(|b| b.name.clone()));
                items.push(FnItem {
                    file: file.rel.clone(),
                    kind: file.kind,
                    crate_name: file.crate_name.clone(),
                    module,
                    owner,
                    name: name.to_string(),
                    line: tok.line,
                    body: (usize::MAX, 0),
                    in_test: file.in_test.get(tok.line).copied().unwrap_or(false),
                    is_pub: is_bare_pub(&toks, i),
                    calls: Vec::new(),
                    panics: Vec::new(),
                    indexes: Vec::new(),
                    locks: Vec::new(),
                    markers: Vec::new(),
                });
                pending_fn = Some(items.len() - 1);
                i += 2;
            }
            TokKind::Punct('{') => {
                depth += 1;
                if let Some(item) = pending_fn.take() {
                    items[item].body.0 = tok.line;
                    active.push(ActiveFn { item, depth });
                }
                i += 1;
            }
            TokKind::Punct('}') => {
                // Close guards, functions and blocks opened at this depth.
                while let Some(g) = guards.last() {
                    if g.depth == depth {
                        let g = guards.pop().expect("guard just observed");
                        items[g.item].locks[g.site].scope_end = tok.line;
                    } else {
                        break;
                    }
                }
                if active.last().is_some_and(|f| f.depth == depth) {
                    let f = active.pop().expect("active fn just observed");
                    items[f.item].body.1 = tok.line;
                }
                depth = depth.saturating_sub(1);
                // A block records the depth its `{` sat at, so it closes
                // once depth returns to that value.
                while blocks.last().is_some_and(|b| b.depth >= depth) {
                    blocks.pop();
                }
                i += 1;
            }
            TokKind::Punct(';') => {
                // A bodyless `fn` declaration (trait signature) ends here
                // if no body was opened. Only at the depth the fn was
                // declared; `;` inside `[u8; 4]` in the signature is rare
                // enough to accept the (harmless) early close.
                if let Some(item) = pending_fn.take() {
                    items[item].body = (usize::MAX, 0);
                }
                i += 1;
            }
            TokKind::Punct('(') => {
                if let Some(site) = classify_call(&toks, i, file) {
                    record_call(site, &toks, i, file, &mut items, &active, &locks, &mut guards, depth);
                }
                i += 1;
            }
            TokKind::Punct('[') => {
                if let Some(f) = active.last() {
                    if is_index_site(&toks, i) {
                        let line = tok.line;
                        let item = &mut items[f.item];
                        if item.indexes.last().map(|s| s.line) != Some(line) {
                            item.indexes.push(IndexSite {
                                line,
                                allowed: allowed(file, line, "panic-reach"),
                            });
                        }
                    }
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    // Attribute hot-loop markers to the function whose body contains them.
    for (lineno, line) in file.lines.iter().enumerate() {
        if !line.comment.trim_start().starts_with("tidy:kernel-hot-loop") {
            continue;
        }
        if let Some(item) = items
            .iter_mut()
            .filter(|it| it.body.0 <= lineno && lineno <= it.body.1)
            .max_by_key(|it| it.body.0)
        {
            item.markers.push(lineno);
        }
    }
    items
}

/// Parses the owner type of an `impl`/`trait` block starting at token
/// `at`; returns the owner name (if the block has a body) and the token
/// index to resume from.
fn parse_owner(toks: &[Tok], at: usize, is_trait: bool) -> (Option<String>, usize) {
    if is_trait {
        // `trait Name …` — the name is the next identifier; scan to the
        // body `{` or a `;` (associated-trait declarations).
        let name = toks.get(at + 1).and_then(Tok::ident).map(str::to_string);
        let mut j = at + 1;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                return (name, j);
            }
            if toks[j].is_punct(';') {
                return (None, j + 1);
            }
            j += 1;
        }
        return (None, j);
    }
    // `impl …` — collect path identifiers outside generic arguments; a
    // `for` keyword restarts the collection (the type is after it), a
    // `where` keyword stops it.
    let mut angle: i32 = 0;
    let mut last: Option<String> = None;
    let mut in_where = false;
    let mut j = at + 1;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            // `->` inside a bound is not a generic close.
            TokKind::Punct('>') if !(j > 0 && toks[j - 1].is_punct('-')) => {
                angle = (angle - 1).max(0);
            }
            TokKind::Punct('{') if angle == 0 => return (last, j),
            TokKind::Punct(';') if angle == 0 => return (None, j + 1),
            TokKind::Ident(w) if angle == 0 && !in_where => {
                if w == "for" {
                    last = None;
                } else if w == "where" {
                    // Type already seen; the bounds up to the body name
                    // other types.
                    in_where = true;
                } else if w != "dyn" && w != "mut" && w != "const" {
                    last = Some(w.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (None, j)
}

/// What kind of call a `(` token introduces.
struct Classified {
    name: String,
    path: Vec<String>,
    is_method: bool,
    is_macro: bool,
    line: usize,
}

/// Looks backwards from the `(` at token `at` to classify the call, or
/// `None` when the paren is grouping/tuple syntax.
fn classify_call(toks: &[Tok], at: usize, _file: &SourceFile) -> Option<Classified> {
    if at == 0 {
        return None;
    }
    let mut k = at - 1;
    let mut is_macro = false;
    if toks[k].is_punct('!') {
        if k == 0 {
            return None;
        }
        is_macro = true;
        k -= 1;
    }
    let name = toks[k].ident()?;
    if KEYWORDS.contains(&name) {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if k > 0 && toks[k - 1].ident() == Some("fn") {
        return None;
    }
    let line = toks[at].line;
    // Walk the `a::b::name` qualifier backwards.
    let mut path_rev: Vec<String> = Vec::new();
    let mut p = k;
    while p >= 2 && toks[p - 1].is_punct(':') && toks[p - 2].is_punct(':') {
        if p >= 3 {
            if let Some(seg) = toks[p - 3].ident() {
                path_rev.push(seg.to_string());
                p -= 3;
                continue;
            }
        }
        break;
    }
    let is_method = p > 0 && toks[p - 1].is_punct('.') && path_rev.is_empty();
    let mut path: Vec<String> = path_rev.into_iter().rev().collect();
    // Keep at most the two innermost qualifier segments — resolution
    // only ever keys on them.
    if path.len() > 2 {
        path = path.split_off(path.len() - 2);
    }
    Some(Classified {
        name: name.to_string(),
        path,
        is_method,
        is_macro,
        line,
    })
}

/// Records a classified call into the active function: as a panic site,
/// a lock acquisition, a `drop(guard)` release, and/or a plain call.
#[allow(clippy::too_many_arguments)]
fn record_call(
    site: Classified,
    toks: &[Tok],
    at: usize,
    file: &SourceFile,
    items: &mut [FnItem],
    active: &[ActiveFn],
    lock_names: &[String],
    guards: &mut Vec<OpenGuard>,
    depth: u32,
) {
    let Some(f) = active.last() else { return };
    let item_idx = f.item;
    let line = site.line;
    if site.is_macro {
        let what = match site.name.as_str() {
            "panic" => Some("panic!"),
            "unreachable" => Some("unreachable!"),
            _ => None,
        };
        if let Some(what) = what {
            items[item_idx].panics.push(PanicSite {
                what,
                line,
                allowed: allowed(file, line, "panic") || allowed(file, line, "panic-reach"),
            });
        }
        return;
    }
    if site.is_method && (site.name == "unwrap" || site.name == "expect") {
        let what = if site.name == "unwrap" {
            ".unwrap()"
        } else {
            ".expect(...)"
        };
        items[item_idx].panics.push(PanicSite {
            what,
            line,
            allowed: allowed(file, line, "panic") || allowed(file, line, "panic-reach"),
        });
        // `.unwrap()` is also a call token; fall through to record it so
        // resolution stays uniform (it resolves to nothing).
    }
    if site.is_method && LOCK_METHODS.contains(&site.name.as_str()) {
        // Receiver: the identifier before the `.` that precedes the name.
        let recv = (at >= 3)
            .then(|| toks[at - 3].ident())
            .flatten()
            .map(str::to_string);
        if let Some(recv) = recv {
            if lock_names.iter().any(|l| l == &recv) {
                // The statement starts after the previous `;`, `{` or `}`
                // token, so a method chain split over several lines (as
                // rustfmt splits it) still finds its `let`.
                let start = toks[..at]
                    .iter()
                    .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
                    .map_or(0, |p| p + 1);
                let ident = |k: usize| toks.get(k).and_then(Tok::ident);
                let scoped = ident(start) == Some("let");
                let binding = scoped.then(|| {
                    let name = start + 1 + usize::from(ident(start + 1) == Some("mut"));
                    ident(name).unwrap_or_default().to_string()
                });
                let stmt_line = toks.get(start).map_or(line, |t| t.line);
                items[item_idx].locks.push(LockSite {
                    lock: recv,
                    line,
                    scope_end: line,
                    allowed: allowed(file, line, "lock-order")
                        || allowed(file, stmt_line, "lock-order"),
                });
                if scoped {
                    guards.push(OpenGuard {
                        item: item_idx,
                        site: items[item_idx].locks.len() - 1,
                        depth,
                        binding,
                    });
                }
            }
        }
    }
    if site.name == "drop" && !site.is_method {
        if let Some(arg) = toks.get(at + 1).and_then(Tok::ident) {
            if let Some(pos) = guards
                .iter()
                .rposition(|g| g.binding.as_deref() == Some(arg))
            {
                let g = guards.remove(pos);
                items[g.item].locks[g.site].scope_end = line;
            }
        }
    }
    items[item_idx].calls.push(CallSite {
        name: site.name,
        path: site.path,
        is_method: site.is_method,
        line,
    });
}

/// True when the `fn` at token `at` is declared bare `pub`: the
/// qualifiers `const`, `async`, `unsafe` and `extern "…"` are skipped,
/// and `pub(crate) fn` ends in `)`, not `pub`.
fn is_bare_pub(toks: &[Tok], at: usize) -> bool {
    for tok in toks[..at].iter().rev() {
        match tok.ident() {
            Some("pub") => return true,
            Some("const" | "async" | "unsafe" | "extern") => {}
            None if tok.is_punct('"') => {}
            _ => return false,
        }
    }
    false
}

/// True when the `[` at token `at` indexes an expression (rather than
/// opening an attribute, a slice type or an array literal).
fn is_index_site(toks: &[Tok], at: usize) -> bool {
    if at == 0 {
        return false;
    }
    match &toks[at - 1].kind {
        TokKind::Ident(w) => !KEYWORDS.contains(&w.as_str()),
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_source;

    fn items_of(rel: &str, src: &str) -> Vec<FnItem> {
        let file = load_source(rel, FileKind::Lib, "core".to_string(), src);
        extract(&file)
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(module_path_of("crates/core/src/engine/pipeline.rs"), ["engine", "pipeline"]);
        assert!(module_path_of("crates/core/src/lib.rs").is_empty());
        assert_eq!(module_path_of("crates/core/src/util/mod.rs"), ["util"]);
        assert!(module_path_of("src/lib.rs").is_empty());
    }

    #[test]
    fn extracts_fns_with_owner_and_calls() {
        let src = "\
pub fn free() { helper(1); }
fn helper(x: u32) -> u32 { x }
impl Foo {
    pub fn method(&self) {
        self.other();
        crate::perf::count_pairs_emitted(1);
    }
}
impl Centroid for Vec<f64> {
    fn centroid(reps: &[Self]) -> Option<Self> { None }
}
";
        let items = items_of("crates/core/src/x.rs", src);
        let names: Vec<_> = items.iter().map(|f| f.display_path()).collect();
        assert_eq!(
            names,
            vec!["core::x::free", "core::x::helper", "core::x::Foo::method", "core::x::Vec::centroid"]
        );
        assert_eq!(items[0].calls.len(), 1);
        assert_eq!(items[0].calls[0].name, "helper");
        assert!(!items[0].calls[0].is_method);
        let method = &items[2];
        assert!(method.calls.iter().any(|c| c.name == "other" && c.is_method));
        assert!(method
            .calls
            .iter()
            .any(|c| c.name == "count_pairs_emitted" && c.path == ["crate", "perf"]));
    }

    #[test]
    fn panic_and_index_sites_with_allows() {
        let src = "\
pub fn f(xs: &[u32], o: Option<u32>) -> u32 {
    let a = xs[0];
    // tidy-allow(panic-reach): o is Some by construction here
    let b = o.unwrap();
    let c = a + b;
    let d = c + 1;
    if a > 1 { panic!(\"boom\") }
    d
}
";
        let items = items_of("crates/core/src/x.rs", src);
        let f = &items[0];
        assert_eq!(f.indexes.len(), 1);
        assert_eq!(f.indexes[0].line, 1);
        assert!(!f.indexes[0].allowed);
        assert_eq!(f.panics.len(), 2);
        assert!(f.panics[0].allowed, "annotated unwrap");
        assert_eq!(f.panics[1].what, "panic!");
        assert!(!f.panics[1].allowed, "annotation window is two lines, panic sits outside it");
    }

    #[test]
    fn attribute_brackets_are_not_index_sites() {
        let src = "\
#[derive(Clone)]
pub struct S;
pub fn f(v: Vec<u32>) -> Vec<u32> {
    #[allow(unused)]
    let x = vec![1, 2];
    v
}
";
        let items = items_of("crates/core/src/x.rs", src);
        assert!(items[0].indexes.is_empty(), "{:#?}", items[0].indexes);
    }

    #[test]
    fn lock_sites_and_guard_scopes() {
        let src = "\
use std::sync::Mutex;
pub struct S { stats: Mutex<u64>, log: Mutex<Vec<u32>> }
impl S {
    pub fn nested(&self) {
        let s = self.stats.lock();
        {
            let l = self.log.lock();
        }
    }
    pub fn transient(&self) {
        self.stats.lock();
    }
    pub fn dropped(&self) {
        let s = self.stats.lock();
        drop(s);
        let l = self.log.lock();
    }
}
";
        let items = items_of("crates/core/src/x.rs", src);
        let nested = &items[0];
        assert_eq!(nested.locks.len(), 2);
        assert_eq!(nested.locks[0].lock, "stats");
        assert!(nested.locks[0].scope_end > nested.locks[1].line, "stats held across log");
        let transient = &items[1];
        assert_eq!(transient.locks[0].scope_end, transient.locks[0].line);
        let dropped = &items[2];
        assert_eq!(dropped.locks[0].lock, "stats");
        assert_eq!(dropped.locks[0].scope_end, dropped.locks[0].line + 1, "released at drop()");
        assert!(dropped.locks[1].line > dropped.locks[0].scope_end);
    }

    #[test]
    fn split_method_chains_keep_their_let_scope() {
        // The layout rustfmt gives a long acquisition: the `let` and the
        // `.lock()` sit on different lines.
        let src = "\
use std::sync::Mutex;
pub struct S { stats: Mutex<u64>, log: Mutex<Vec<u32>> }
impl S {
    pub fn nested(&self) {
        let s = self
            .stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // tidy-allow(lock-order): stats before log
        let mut l = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        drop(l);
    }
}
";
        let items = items_of("crates/core/src/x.rs", src);
        let locks = &items[0].locks;
        assert_eq!(locks.len(), 2);
        assert!(locks[0].scope_end > locks[1].line, "stats held across log");
        assert!(
            locks[1].allowed,
            "the allow above the `let` covers the chain"
        );
        assert_eq!(locks[1].scope_end, 13, "released at drop(l)");
    }

    #[test]
    fn markers_attach_to_the_enclosing_fn() {
        let src = "\
pub fn outer(rows: &[u32]) -> u32 {
    let mut total = 0;
    // tidy:kernel-hot-loop — summation
    for r in rows { total += *r; }
    // tidy:end-kernel-hot-loop
    total
}
pub fn plain() {}
";
        let items = items_of("crates/core/src/x.rs", src);
        assert_eq!(items[0].markers, vec![2]);
        assert!(items[1].markers.is_empty());
    }

    #[test]
    fn cfg_test_fns_are_flagged() {
        let src = "\
pub fn lib() {}
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
";
        let items = items_of("crates/core/src/x.rs", src);
        assert!(!items[0].in_test);
        assert!(items[1].in_test);
        assert_eq!(items[1].module, vec!["x", "tests"]);
    }

    #[test]
    fn trait_methods_get_the_trait_as_owner() {
        let src = "\
pub trait Model {
    fn fit(&self) -> u32;
    fn save(&self) -> u32 { self.fit() }
}
";
        let items = items_of("crates/core/src/x.rs", src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].owner.as_deref(), Some("Model"));
        assert!(items[0].body.0 > items[0].body.1, "signature has no body");
        assert_eq!(items[1].name, "save");
        assert!(items[1].calls.iter().any(|c| c.name == "fit" && c.is_method));
    }
}
