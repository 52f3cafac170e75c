//! The deep (workspace-level) rule families: checks that need the call
//! graph or the whole workspace rather than a single line —
//! panic-reachability, lock-order, counter-coverage, error-coverage and
//! pub-reach.
//!
//! Where the per-line rules in [`crate::rules`] ask "does this line
//! contain a forbidden pattern", these ask "can control flow starting in
//! a protected module *reach* one" — or, for pub-reach, "does anything
//! outside the crate reach this `pub fn`". All five run off the same
//! [`WorkspaceModel`] built once per pass; the reachability families are
//! conservative in the reporting direction (see the [`crate::graph`]
//! docs).
//!
//! Allow-escape semantics per family:
//!
//! * **panic-reach** — a reachable panic site is exempt if it carries a
//!   `tidy-allow(panic)` *or* `tidy-allow(panic-reach)` invariant; an
//!   indexing site in a protected module needs `tidy-allow(panic-reach)`.
//! * **lock-order** — a nested acquisition or a similarity call under a
//!   held guard can carry `tidy-allow(lock-order)` stating the order
//!   invariant; a **cycle** in the acquisition graph has *no* escape
//!   (two annotated-but-opposite orders are still a deadlock).
//! * **counter-coverage** — `tidy-allow(counter-coverage)` on the
//!   `tidy:kernel-hot-loop` marker line states why the enclosing kernel
//!   is metered elsewhere (e.g. callers count in aggregate).
//! * **error-coverage** — `tidy-allow(error-coverage)` on the variant's
//!   declaration line in `error.rs`.
//! * **pub-reach** — `tidy-allow(pub-reach)` on the `fn` line names the
//!   outside caller that needs the bare `pub`.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{crate_reaches, WorkspaceModel};
use crate::items::FnItem;
use crate::lex::{lex, TokKind};
use crate::rules::{allowed, Diagnostic, FileKind, SourceFile};

/// Files whose functions are panic-reachability roots: the engine
/// orchestration layer plus the durability codecs and the serve path —
/// the modules a production deployment cannot afford to see panic.
const PROTECTED_FILES: &[&str] = &[
    "crates/core/src/serve.rs",
    "crates/core/src/wal.rs",
    "crates/core/src/artifact.rs",
    "crates/core/src/util/frame.rs",
    "crates/core/src/incremental.rs",
];

/// Crates whose library code the deep rules gate (same set as the
/// per-line panic rule).
const CHECKED_LIBS: &[&str] = &["core", "data", "baselines", "eval", "rock"];

/// Method names that dispatch into user-supplied similarity code
/// (`Similarity::similarity`, `IndexedSimilarity::sim`). Calling these
/// while holding a lock hands the lock's critical section to arbitrary
/// user code.
const SIMILARITY_METHODS: &[&str] = &["similarity", "sim"];

fn is_protected(rel: &str) -> bool {
    rel.starts_with("crates/core/src/engine/") || PROTECTED_FILES.contains(&rel)
}

/// Crates whose bare `pub fn`s must have a caller outside the crate.
const PUB_REACH_LIBS: &[&str] = &["core", "data", "eval", "baselines"];

/// Runs all five deep families over the workspace's files.
pub fn check_deep(files: &[SourceFile]) -> Vec<Diagnostic> {
    let model = WorkspaceModel::build(files);
    let by_rel: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut out = Vec::new();
    check_panic_reach(&model, &mut out);
    check_lock_order(&model, &mut out);
    check_counter_coverage(&model, &by_rel, &mut out);
    check_error_coverage(files, &by_rel, &mut out);
    check_pub_reach(&model, files, &by_rel, &mut out);
    out
}

/// **panic-reach** — no path from a protected root (engine, serve, WAL
/// and artifact codecs) to an unannotated panicking construct, through
/// any number of calls; plus no unannotated indexing directly inside a
/// protected module (a wrong index is the classic way a corrupt artifact
/// byte becomes a serve-time panic).
fn check_panic_reach(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    let roots: Vec<usize> = (0..model.fns.len())
        .filter(|&i| is_protected(&model.fns[i].file))
        .collect();
    if roots.is_empty() {
        return;
    }
    let parents = model.reach_from(&roots);
    for (i, f) in model.fns.iter().enumerate() {
        if parents[i].is_none() {
            continue;
        }
        for p in &f.panics {
            if p.allowed {
                continue;
            }
            let chain = model.chain(&parents, i);
            out.push(Diagnostic {
                file: f.file.clone(),
                line: p.line + 1,
                rule: "panic-reach",
                message: format!(
                    "{what} is reachable from protected module code via {chain}: \
                     return a RockError or add `// tidy-allow(panic-reach): <invariant>`",
                    what = p.what,
                    chain = chain.join(" -> "),
                ),
            });
        }
    }
    for &i in &roots {
        let f = &model.fns[i];
        for site in &f.indexes {
            if site.allowed {
                continue;
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line: site.line + 1,
                rule: "panic-reach",
                message: format!(
                    "indexing in protected fn `{}` panics on out-of-bounds: use \
                     `.get(…)` with a RockError path or add \
                     `// tidy-allow(panic-reach): <why the index is in bounds>`",
                    f.display_path(),
                ),
            });
        }
    }
}

/// A lock-acquisition edge: `from` held while `to` is acquired.
struct LockEdge {
    from: String,
    to: String,
    file: String,
    /// 1-based line of the inner acquisition (or the call that leads to
    /// it, for interprocedural edges).
    line: usize,
}

/// **lock-order** — builds the static acquisition graph over the checked
/// libraries and flags (a) nested acquisitions without an order
/// invariant, (b) similarity-trait calls under a held guard, and (c)
/// cycles in the graph, which no annotation can excuse.
fn check_lock_order(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    let in_scope = |f: &FnItem| {
        f.kind == FileKind::Lib && CHECKED_LIBS.contains(&f.crate_name.as_str())
    };
    // Transitive "locks this fn may acquire" per function, for
    // lock-held-across-call edges.
    let mut edges: Vec<LockEdge> = Vec::new();
    for f in model.fns.iter().filter(|f| in_scope(f)) {
        for (ai, a) in f.locks.iter().enumerate() {
            let held = |line: usize| line > a.line && line <= a.scope_end;
            // (a) direct nesting inside a's guard scope.
            for b in f.locks.iter().skip(ai + 1) {
                if held(b.line) && b.lock != a.lock {
                    edges.push(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        file: f.file.clone(),
                        line: b.line + 1,
                    });
                    if !b.allowed {
                        out.push(Diagnostic {
                            file: f.file.clone(),
                            line: b.line + 1,
                            rule: "lock-order",
                            message: format!(
                                "`{}` acquired while `{}` is held (in `{}`): state the \
                                 workspace-wide order invariant with \
                                 `// tidy-allow(lock-order): <order>` or release first",
                                b.lock,
                                a.lock,
                                f.display_path(),
                            ),
                        });
                    }
                }
            }
            for call in f.calls.iter().filter(|c| held(c.line)) {
                // (b) user-supplied similarity code under a held guard.
                if call.is_method
                    && SIMILARITY_METHODS.contains(&call.name.as_str())
                    && !a.allowed
                {
                    out.push(Diagnostic {
                        file: f.file.clone(),
                        line: a.line + 1,
                        rule: "lock-order",
                        message: format!(
                            "`{}` is held across a `.{}(…)` call into user-supplied \
                             similarity code (line {}): compute first, lock after, or \
                             add `// tidy-allow(lock-order): <why user code cannot \
                             re-enter>`",
                            a.lock,
                            call.name,
                            call.line + 1,
                        ),
                    });
                }
                // Interprocedural edges (cycle detection only): locks the
                // callee may transitively acquire while `a` is held.
                for callee in model.resolve(f, call) {
                    let reach = model.reach_from(&[callee]);
                    for (j, g) in model.fns.iter().enumerate() {
                        if reach[j].is_none() {
                            continue;
                        }
                        for b in &g.locks {
                            if b.lock != a.lock {
                                edges.push(LockEdge {
                                    from: a.lock.clone(),
                                    to: b.lock.clone(),
                                    file: f.file.clone(),
                                    line: call.line + 1,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    // (c) cycles: deduplicate the edge set, then DFS per distinct edge.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in &edges {
        let next = adj.entry(e.from.as_str()).or_default();
        if !next.contains(&e.to.as_str()) {
            next.push(e.to.as_str());
        }
    }
    let mut reported: Vec<(String, String)> = Vec::new();
    for e in &edges {
        // Is `e.from` reachable back from `e.to` in the lock graph?
        let mut stack = vec![e.to.as_str()];
        let mut seen: Vec<&str> = vec![e.to.as_str()];
        let mut cyclic = false;
        while let Some(at) = stack.pop() {
            if at == e.from {
                cyclic = true;
                break;
            }
            for &n in adj.get(at).map(Vec::as_slice).unwrap_or(&[]) {
                if !seen.contains(&n) {
                    seen.push(n);
                    stack.push(n);
                }
            }
        }
        if !cyclic {
            continue;
        }
        // One report per unordered lock pair keeps the output readable.
        let key = if e.from < e.to {
            (e.from.clone(), e.to.clone())
        } else {
            (e.to.clone(), e.from.clone())
        };
        if reported.contains(&key) {
            continue;
        }
        reported.push(key);
        out.push(Diagnostic {
            file: e.file.clone(),
            line: e.line,
            rule: "lock-order",
            message: format!(
                "lock-order cycle: `{}` -> `{}` here, and the reverse order exists \
                 elsewhere in the workspace — a deadlock under concurrency; no \
                 tidy-allow escape, one global order must be restored",
                e.from, e.to,
            ),
        });
    }
}

/// **counter-coverage** — every `tidy:kernel-hot-loop` region's
/// enclosing function must reach (transitively) a `rock_core::perf`
/// counter call; an unmetered kernel is invisible to the perf gate.
fn check_counter_coverage(
    model: &WorkspaceModel,
    by_rel: &BTreeMap<&str, &SourceFile>,
    out: &mut Vec<Diagnostic>,
) {
    // Functions that touch perf directly: a `perf::`-qualified call, or
    // a bare call resolving into core's `perf` module.
    let touches: Vec<bool> = model
        .fns
        .iter()
        .map(|f| {
            f.calls.iter().any(|c| {
                c.path.last().map(String::as_str) == Some("perf")
                    || model.resolve(f, c).iter().any(|&j| {
                        let g = &model.fns[j];
                        g.module.last().map(String::as_str) == Some("perf")
                            && g.crate_name == "core"
                    })
            })
        })
        .collect();
    for (i, f) in model.fns.iter().enumerate() {
        if f.markers.is_empty()
            || f.kind != FileKind::Lib
            || !CHECKED_LIBS.contains(&f.crate_name.as_str())
        {
            continue;
        }
        let reach = model.reach_from(&[i]);
        let metered = (0..model.fns.len()).any(|j| reach[j].is_some() && touches[j]);
        if metered {
            continue;
        }
        for &m in &f.markers {
            let site_allowed = by_rel
                .get(f.file.as_str())
                .is_some_and(|src| allowed(src, m, "counter-coverage"));
            if site_allowed {
                continue;
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line: m + 1,
                rule: "counter-coverage",
                message: format!(
                    "hot-loop region in `{}` never reaches a `perf::count_*` \
                     increment: meter the kernel or add \
                     `// tidy-allow(counter-coverage): <where it is counted>`",
                    f.display_path(),
                ),
            });
        }
    }
}

/// True when `code` names `RockError::<variant>` with a word boundary
/// after the variant (so `InvalidK` does not match `InvalidKFoo`).
fn names_variant(code: &str, variant: &str) -> bool {
    let pat = format!("RockError::{variant}");
    let mut from = 0;
    while let Some(at) = code[from..].find(&pat) {
        let end = from + at + pat.len();
        let boundary = code[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// **error-coverage** — every `RockError` variant must be constructed
/// somewhere in library code *and* matched/asserted somewhere under a
/// `tests/` tree. A variant nothing constructs is dead API surface; a
/// variant nothing tests is an error path that has never executed.
fn check_error_coverage(
    files: &[SourceFile],
    by_rel: &BTreeMap<&str, &SourceFile>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(error_file) = by_rel.get("crates/core/src/error.rs") else {
        return;
    };
    let variants = enum_variants(error_file, "RockError");
    for (variant, decl_line) in variants {
        if allowed(error_file, decl_line, "error-coverage") {
            continue;
        }
        let mut constructed = false;
        let mut tested = false;
        for f in files {
            // Only a `tests/` tree counts as tested — inline
            // `#[cfg(test)]` units don't exercise the variant through
            // the public API the way an integration test does.
            let is_test_tree = f.rel.starts_with("tests/") || f.rel.contains("/tests/");
            for (i, line) in f.lines.iter().enumerate() {
                if !names_variant(&line.code, &variant) {
                    continue;
                }
                let in_test_cfg = f.in_test.get(i).copied().unwrap_or(false);
                if is_test_tree {
                    tested = true;
                } else if f.kind == FileKind::Lib
                    && !in_test_cfg
                    && f.rel != "crates/core/src/error.rs"
                {
                    constructed = true;
                }
            }
        }
        let missing = match (constructed, tested) {
            (true, true) => continue,
            (false, true) => "never constructed in library code",
            (true, false) => "never matched or asserted under a tests/ tree",
            (false, false) => "neither constructed in library code nor named in any test",
        };
        out.push(Diagnostic {
            file: "crates/core/src/error.rs".to_string(),
            line: decl_line + 1,
            rule: "error-coverage",
            message: format!(
                "RockError::{variant} is {missing}: cover the variant or add \
                 `// tidy-allow(error-coverage): <why>` at its declaration"
            ),
        });
    }
}

/// **pub-reach** — a bare `pub fn` in the library code of
/// [`PUB_REACH_LIBS`] must be named, as a whole word in code text, by a
/// file outside its crate: another crate that can depend on it, any
/// `tests/`, `examples/` or `benches/` tree, or a [`FileKind::Caller`]
/// file. `pub(crate)` already serves callers inside the crate, so a
/// `pub` nothing outside names is surface to delete or demote. Names are
/// matched, not resolved, so a fn sharing a name with an outside call
/// (`new`, `len`) passes.
fn check_pub_reach(
    model: &WorkspaceModel,
    files: &[SourceFile],
    by_rel: &BTreeMap<&str, &SourceFile>,
    out: &mut Vec<Diagnostic>,
) {
    let outside_words = |krate: &str| -> BTreeSet<&str> {
        files
            .iter()
            .filter(|f| match f.kind {
                FileKind::TestOrExample | FileKind::Caller => true,
                FileKind::Lib | FileKind::Bin | FileKind::Shim => {
                    f.crate_name != krate && crate_reaches(&f.crate_name, krate)
                }
            })
            .flat_map(|f| f.lines.iter())
            .flat_map(|l| l.code.split(|c: char| !c.is_alphanumeric() && c != '_'))
            .filter(|w| !w.is_empty())
            .collect()
    };
    for &krate in PUB_REACH_LIBS {
        let words = outside_words(krate);
        for f in &model.fns {
            if !f.is_pub
                || f.kind != FileKind::Lib
                || f.crate_name != krate
                || words.contains(f.name.as_str())
            {
                continue;
            }
            let site_allowed = by_rel
                .get(f.file.as_str())
                .is_some_and(|src| allowed(src, f.line, "pub-reach"));
            if site_allowed {
                continue;
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line: f.line + 1,
                rule: "pub-reach",
                message: format!(
                    "`{}` is `pub` but nothing outside crate `{krate}` names it: \
                     delete it, make it `pub(crate)` (or private), or add \
                     `// tidy-allow(pub-reach): <the outside caller that needs it>`",
                    f.display_path(),
                ),
            });
        }
    }
}

/// Extracts `(variant, 0-based declaration line)` for `enum <name>` from
/// a scanned file, via the token stream: identifiers at brace depth 1
/// inside the enum body that start a variant (i.e. directly follow `{`
/// or a top-level `,`), skipping `#[…]` attribute groups.
fn enum_variants(file: &SourceFile, name: &str) -> Vec<(String, usize)> {
    let toks = lex(&file.lines);
    let mut i = 0;
    // Find `enum <name> … {`.
    let mut body_start = None;
    while i + 1 < toks.len() {
        if toks[i].ident() == Some("enum") && toks[i + 1].ident() == Some(name) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            body_start = Some(j + 1);
            break;
        }
        i += 1;
    }
    let Some(start) = body_start else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 1i32; // inside the enum braces
    let mut bracket = 0i32; // #[…] attribute groups
    let mut at_variant = true; // next depth-1 ident starts a variant
    let mut k = start;
    while k < toks.len() && depth > 0 {
        match &toks[k].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct(',') if depth == 1 && bracket == 0 => at_variant = true,
            TokKind::Ident(w) if depth == 1 && bracket == 0 && at_variant => {
                if w.chars().next().is_some_and(char::is_uppercase) {
                    out.push((w.clone(), toks[k].line));
                }
                at_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_source;

    fn deep(files: &[(&str, &str, FileKind, &str)]) -> Vec<Diagnostic> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, krate, kind, src)| load_source(rel, *kind, krate.to_string(), src))
            .collect();
        check_deep(&sources)
    }

    #[test]
    fn transitive_unwrap_from_engine_fires() {
        let d = deep(&[
            (
                "crates/core/src/engine/pipeline.rs",
                "core",
                FileKind::Lib,
                "pub fn run() { crate::util::helper(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                FileKind::Lib,
                "pub fn helper() { Some(1).unwrap(); }\n",
            ),
        ]);
        assert!(
            d.iter().any(|x| x.rule == "panic-reach" && x.file.ends_with("util.rs")),
            "{d:#?}"
        );
        // An annotated site is an accepted invariant, not a violation.
        let ok = deep(&[
            (
                "crates/core/src/engine/pipeline.rs",
                "core",
                FileKind::Lib,
                "pub fn run() { crate::util::helper(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                FileKind::Lib,
                "pub fn helper() {\n    // tidy-allow(panic): value is Some by construction\n    Some(1).unwrap();\n}\n",
            ),
        ]);
        assert!(!ok.iter().any(|x| x.rule == "panic-reach"), "{ok:#?}");
    }

    #[test]
    fn lock_cycle_has_no_escape() {
        let src = "\
use std::sync::Mutex;
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    pub fn one(&self) {
        let g = self.a.lock();
        // tidy-allow(lock-order): a before b
        let h = self.b.lock();
    }
    pub fn two(&self) {
        let g = self.b.lock();
        // tidy-allow(lock-order): b before a
        let h = self.a.lock();
    }
}
";
        let d = deep(&[("crates/core/src/serve.rs", "core", FileKind::Lib, src)]);
        assert!(
            d.iter().any(|x| x.rule == "lock-order" && x.message.contains("cycle")),
            "{d:#?}"
        );
    }

    #[test]
    fn similarity_call_under_lock_fires() {
        let src = "\
use std::sync::Mutex;
pub struct S { stats: Mutex<u32> }
impl S {
    pub fn bad(&self, m: &M, a: &P, b: &P) {
        let g = self.stats.lock();
        let s = m.similarity(a, b);
    }
}
";
        let d = deep(&[("crates/core/src/serve.rs", "core", FileKind::Lib, src)]);
        assert!(
            d.iter().any(|x| x.rule == "lock-order" && x.message.contains("similarity")),
            "{d:#?}"
        );
    }

    #[test]
    fn unmetered_hot_loop_fires_and_perf_call_clears() {
        let bad = "\
pub fn kernel(rows: &[u32]) -> u32 {
    let mut t = 0;
    // tidy:kernel-hot-loop — sum
    for r in rows { t += *r; }
    // tidy:end-kernel-hot-loop
    t
}
";
        let d = deep(&[("crates/core/src/links.rs", "core", FileKind::Lib, bad)]);
        assert!(d.iter().any(|x| x.rule == "counter-coverage"), "{d:#?}");
        let good = "\
pub fn kernel(rows: &[u32]) -> u32 {
    let mut t = 0;
    // tidy:kernel-hot-loop — sum
    for r in rows { t += *r; }
    // tidy:end-kernel-hot-loop
    crate::perf::count_bytes_touched(rows.len() as u64);
    t
}
";
        let perf = "pub fn count_bytes_touched(n: u64) {}\n";
        let d = deep(&[
            ("crates/core/src/links.rs", "core", FileKind::Lib, good),
            ("crates/core/src/perf.rs", "core", FileKind::Lib, perf),
        ]);
        assert!(!d.iter().any(|x| x.rule == "counter-coverage"), "{d:#?}");
    }

    #[test]
    fn error_variant_coverage() {
        let error_rs = "\
pub enum RockError {
    InvalidTheta,
    Unused { detail: String },
}
";
        let lib = "pub fn f() -> Result<(), RockError> { Err(RockError::InvalidTheta) }\n";
        let test = "fn t() { assert!(matches!(e, RockError::InvalidTheta)); }\n";
        let d = deep(&[
            ("crates/core/src/error.rs", "core", FileKind::Lib, error_rs),
            ("crates/core/src/lib.rs", "core", FileKind::Lib, lib),
            ("crates/core/tests/errors.rs", "core", FileKind::TestOrExample, test),
        ]);
        let msgs: Vec<&str> = d
            .iter()
            .filter(|x| x.rule == "error-coverage")
            .map(|x| x.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 1, "{d:#?}");
        assert!(msgs[0].contains("Unused"), "{msgs:?}");
    }

    /// pub-reach findings over a workspace of `(rel, crate, kind, src)`.
    fn pub_reach(files: &[(&str, &str, FileKind, &str)]) -> Vec<Diagnostic> {
        deep(files)
            .into_iter()
            .filter(|d| d.rule == "pub-reach")
            .collect()
    }

    const LIB: &str = "\
pub fn used() -> u32 { 1 }
pub(crate) fn internal() -> u32 { used() }
pub trait Model { fn fit(&self) -> u32; }
impl Model for u32 { fn fit(&self) -> u32 { *self } }
pub struct S;
impl S { pub fn method(&self) -> u32 { 2 } }
#[cfg(test)]
mod tests { pub fn helper() {} }
";

    #[test]
    fn pub_reach_flags_names_seen_only_inside_the_crate() {
        let own = "pub fn g() -> u32 { crate::x::used() + S.method() }\n\
                   #[cfg(test)]\nmod tests { fn t() { super::used(); } }\n";
        let d = pub_reach(&[
            ("crates/core/src/x.rs", "core", FileKind::Lib, LIB),
            ("crates/core/src/y.rs", "core", FileKind::Lib, own),
        ]);
        let flagged: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(d.len(), 3, "{d:#?}");
        assert!(
            flagged.iter().any(|m| m.contains("`core::x::used`")),
            "{d:#?}"
        );
        assert!(
            flagged.iter().any(|m| m.contains("`core::x::S::method`")),
            "{d:#?}"
        );
        assert!(flagged.iter().any(|m| m.contains("`core::y::g`")), "{d:#?}");
    }

    #[test]
    fn pub_reach_ignores_comments_and_strings() {
        let other =
            "// calls used() and method()\npub fn h() -> &'static str { \"used method\" }\n";
        let d = pub_reach(&[
            ("crates/core/src/x.rs", "core", FileKind::Lib, LIB),
            ("crates/data/src/z.rs", "data", FileKind::Lib, other),
        ]);
        assert!(
            d.iter().any(|x| x.message.contains("`core::x::used`")),
            "{d:#?}"
        );
        assert!(
            d.iter().any(|x| x.message.contains("`core::x::S::method`")),
            "{d:#?}"
        );
    }

    #[test]
    fn pub_reach_passes_on_any_outside_caller() {
        let call = "fn main() { rock_core::x::used(); rock_core::x::S.method(); }\n";
        for (rel, krate, kind) in [
            ("crates/data/src/z.rs", "data", FileKind::Lib),
            ("src/lib.rs", "rock", FileKind::Lib),
            ("crates/bench/src/bin/b.rs", "bench", FileKind::Bin),
            ("crates/core/tests/t.rs", "core", FileKind::TestOrExample),
            ("tests/t.rs", "rock", FileKind::TestOrExample),
            ("examples/e.rs", "rock", FileKind::TestOrExample),
            (
                "crates/bench/benches/b.rs",
                "bench",
                FileKind::TestOrExample,
            ),
            ("rockbench/src/main.rs", "rockbench", FileKind::Caller),
        ] {
            let d = pub_reach(&[
                ("crates/core/src/x.rs", "core", FileKind::Lib, LIB),
                (rel, krate, kind, call),
            ]);
            assert!(d.is_empty(), "{rel} is an outside caller: {d:#?}");
        }
        // A crate that cannot depend on rock-core is no caller.
        let d = pub_reach(&[
            ("crates/core/src/x.rs", "core", FileKind::Lib, LIB),
            ("crates/tidy/src/t.rs", "tidy", FileKind::Lib, call),
        ]);
        assert_eq!(d.len(), 2, "{d:#?}");
    }

    #[test]
    fn pub_reach_allow_needs_a_reason() {
        let src = "\
// tidy-allow(pub-reach): rockbench's workloads call it
pub fn kept() {}
// tidy-allow(pub-reach)
pub fn bare() {}
";
        let files = [("crates/eval/src/x.rs", "eval", FileKind::Lib, src)];
        let d = pub_reach(&files);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 4);
        let file = load_source(files[0].0, FileKind::Lib, "eval".into(), src);
        let annotation: Vec<Diagnostic> = crate::check_file(&file)
            .into_iter()
            .filter(|x| x.rule == "annotation")
            .collect();
        assert_eq!(annotation.len(), 1, "{annotation:#?}");
        assert_eq!(annotation[0].line, 3);
    }

    #[test]
    fn enum_variant_extraction_handles_payloads() {
        let src = "\
pub enum RockError {
    A,
    B(u32),
    C { x: u32, y: String },
    #[doc = \"x\"]
    D,
}
";
        let f = load_source("crates/core/src/error.rs", FileKind::Lib, "core".into(), src);
        let names: Vec<String> = enum_variants(&f, "RockError").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["A", "B", "C", "D"]);
    }
}
