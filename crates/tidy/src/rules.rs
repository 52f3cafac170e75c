//! The invariant catalog: one small self-contained checker per rule.
//!
//! Every checker takes a scanned [`SourceFile`] and reports violations as
//! [`Diagnostic`]s with precise `file:line` positions. A site can be
//! exempted with an adjacent annotation
//!
//! ```text
//! // tidy-allow(<rule>): <concrete invariant that makes the site sound>
//! ```
//!
//! on the same line or one of the two lines above. The reason is
//! mandatory: an annotation without one does not exempt the site (and is
//! itself reported), so every allowlisted violation carries its own
//! justification in the diff.

use crate::scan::{contains_word, SourceLine};

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code of a workspace crate (`crates/<name>/src/**`,
    /// facade `src/**`).
    Lib,
    /// A binary target (`src/bin/**`).
    Bin,
    /// A vendored offline shim (`shims/<name>/src/**`).
    Shim,
    /// Tests, examples and benches — exempt from the library-only rules.
    TestOrExample,
}

/// A scanned source file plus its workspace classification.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// File classification.
    pub kind: FileKind,
    /// Owning crate: `core`, `data`, … for `crates/*`; `rock` for the
    /// facade; `shims/rayon` etc. for shims.
    pub crate_name: String,
    /// Code/comment split per line.
    pub lines: Vec<SourceLine>,
    /// `true` for lines inside `#[cfg(test)]` items.
    pub in_test: Vec<bool>,
}

/// One rule violation at a precise position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file / workspace findings).
    pub line: usize,
    /// Rule identifier (the name accepted by `tidy-allow(...)`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Every rule name accepted by the `tidy-allow(<rule>)` grammar.
pub const ALLOWABLE_RULES: &[&str] = &[
    "panic",
    "nondeterministic-iter",
    "wall-clock",
    "float-ordering",
    "file-io",
    "unsafe-block",
    "forbid-unsafe",
    "debris",
    "kernel-alloc",
    "panic-reach",
    "lock-order",
    "counter-coverage",
    "error-coverage",
    "shims-confined",
];

/// The crates whose library code must be panic-free / total-ordered.
const CHECKED_LIBS: &[&str] = &["core", "data", "baselines", "eval", "rock"];

/// Library files allowed to read the wall clock (timing code).
const WALL_CLOCK_FILES: &[&str] = &["crates/core/src/report.rs", "crates/core/src/governor.rs"];

/// True if line `idx` (0-based) carries a valid `tidy-allow(rule): reason`
/// on itself or one of the two preceding lines.
pub(crate) fn allowed(file: &SourceFile, idx: usize, rule: &str) -> bool {
    let lo = idx.saturating_sub(2);
    (lo..=idx).any(|i| {
        file.lines
            .get(i)
            .and_then(|l| parse_allow(&l.comment))
            .is_some_and(|(r, reason)| r == rule && !reason.is_empty())
    })
}

/// Parses a `tidy-allow(<rule>): <reason>` annotation. Only a comment
/// that *starts* with the grammar counts — prose (or documentation like
/// this sentence) merely mentioning `tidy-allow(...)` does not.
fn parse_allow(comment: &str) -> Option<(&str, &str)> {
    let after = comment.trim_start().strip_prefix("tidy-allow(")?;
    let close = after.find(')')?;
    let rule = after[..close].trim();
    let tail = &after[close + 1..];
    let reason = tail.strip_prefix(':').unwrap_or("").trim();
    Some((rule, reason))
}

/// Shared walk: yields `(line_index, line)` for non-test lines.
fn lib_lines(file: &SourceFile) -> impl Iterator<Item = (usize, &SourceLine)> {
    file.lines
        .iter()
        .enumerate()
        .filter(|&(i, _)| !file.in_test.get(i).copied().unwrap_or(false))
}

fn diag(file: &SourceFile, idx: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.rel.clone(),
        line: idx + 1,
        rule,
        message,
    }
}

/// **annotation** — malformed or unknown `tidy-allow` annotations are
/// themselves violations, so a typo cannot silently disable a rule.
pub fn check_annotations(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in file.lines.iter().enumerate() {
        if let Some((rule, reason)) = parse_allow(&line.comment) {
            if !ALLOWABLE_RULES.contains(&rule) {
                out.push(diag(
                    file,
                    i,
                    "annotation",
                    format!("tidy-allow names unknown rule `{rule}`"),
                ));
            } else if reason.is_empty() {
                out.push(diag(
                    file,
                    i,
                    "annotation",
                    format!(
                        "tidy-allow({rule}) needs a `: <reason>` stating the invariant \
                         that makes the site sound"
                    ),
                ));
            }
        }
    }
}

/// **panic** — library code of the checked crates must not contain
/// `unwrap`/`expect`/`panic!`/`unreachable!`: fallible paths go through
/// `RockError`, infallible ones carry a `tidy-allow(panic)` invariant.
/// (`assert!` of documented preconditions is the sanctioned idiom and is
/// not flagged; `todo!`/`dbg!` debris is the **debris** rule.)
pub fn check_panic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || !CHECKED_LIBS.contains(&file.crate_name.as_str()) {
        return;
    }
    const PATTERNS: &[(&str, &str)] = &[
        (".unwrap()", "`.unwrap()` panics on None/Err"),
        (".expect(", "`.expect(...)` panics on None/Err"),
        ("panic!(", "`panic!` in library code"),
        ("unreachable!(", "`unreachable!` in library code"),
    ];
    for (i, line) in lib_lines(file) {
        for &(pat, what) in PATTERNS {
            if line.code.contains(pat) && !allowed(file, i, "panic") {
                out.push(diag(
                    file,
                    i,
                    "panic",
                    format!(
                        "{what}; return a RockError or add \
                         `// tidy-allow(panic): <invariant>`"
                    ),
                ));
                break; // one diagnostic per line is enough
            }
        }
    }
}

/// **wall-clock** — `rock-core` is the deterministic replay engine: the
/// wall clock may only be read by the timing modules (`report.rs`,
/// `governor.rs`). A stray `Instant::now()` anywhere else is how
/// time-dependent behaviour sneaks into merge order or WAL bytes.
pub fn check_wall_clock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || file.crate_name != "core" {
        return;
    }
    if WALL_CLOCK_FILES.contains(&file.rel.as_str()) {
        return;
    }
    const PATTERNS: &[&str] = &["Instant::now", "SystemTime", "UNIX_EPOCH"];
    for (i, line) in lib_lines(file) {
        for &pat in PATTERNS {
            if line.code.contains(pat) && !allowed(file, i, "wall-clock") {
                out.push(diag(
                    file,
                    i,
                    "wall-clock",
                    format!(
                        "`{pat}` outside report.rs/governor.rs: deterministic modules \
                         must not read the wall clock"
                    ),
                ));
            }
        }
    }
}

/// Library files allowed to touch the filesystem in `rock-core`: the
/// two durable-bytes boundary modules (merge WAL, model artifact).
const FILE_IO_FILES: &[&str] = &["crates/core/src/wal.rs", "crates/core/src/artifact.rs"];

/// **file-io** — `rock-core` is an in-memory engine; the only modules
/// allowed to open, read or write files are the durability boundaries
/// (`wal.rs`, `artifact.rs`). Filesystem access creeping into any other
/// module is how "pure" kernels quietly grow environment dependencies —
/// and how the serve layer would lose its pluggable-source seam
/// (everything else must go through `artifact::ArtifactSource`).
pub fn check_file_io(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || file.crate_name != "core" {
        return;
    }
    if FILE_IO_FILES.contains(&file.rel.as_str()) {
        return;
    }
    const PATTERNS: &[&str] = &[
        "std::fs",
        "fs::read",
        "fs::write",
        "fs::rename",
        "fs::remove",
        "File::open",
        "File::create",
        "OpenOptions",
    ];
    for (i, line) in lib_lines(file) {
        if let Some(pat) = PATTERNS.iter().find(|p| line.code.contains(**p)) {
            if !allowed(file, i, "file-io") {
                out.push(diag(
                    file,
                    i,
                    "file-io",
                    format!(
                        "`{pat}` outside wal.rs/artifact.rs: rock-core file I/O is \
                         confined to the durability boundary modules"
                    ),
                ));
            }
        }
    }
}

/// **float-ordering** — ordering decisions on floats must use
/// `total_cmp`: `partial_cmp` returns `None` on NaN and the usual
/// `.partial_cmp(..).unwrap()` idiom turns a poisoned similarity into a
/// mid-merge panic (and `Option`-defaulting turns it into silent
/// order instability).
pub fn check_float_ordering(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || !CHECKED_LIBS.contains(&file.crate_name.as_str()) {
        return;
    }
    for (i, line) in lib_lines(file) {
        if line.code.contains(".partial_cmp(") && !allowed(file, i, "float-ordering") {
            out.push(diag(
                file,
                i,
                "float-ordering",
                "`partial_cmp` in an ordering path: use `f64::total_cmp` so NaN orders \
                 deterministically instead of panicking or vanishing"
                    .to_string(),
            ));
        }
    }
}

/// **nondeterministic-iter** — in `rock-core` and `rock-baselines`,
/// iterating a `HashMap`/`HashSet` in an order-sensitive position is the
/// classic way to lose bit-identical replay (or, in a baseline, a
/// seed-reproducible comparison run). Every iteration over a hash-typed
/// binding must either be followed by a sort (within the next few lines)
/// or carry a `tidy-allow(nondeterministic-iter)` annotation explaining
/// why the order cannot reach merge decisions, reports or WAL bytes.
pub fn check_nondeterministic_iter(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const ORDERED_LIBS: &[&str] = &["core", "baselines"];
    if file.kind != FileKind::Lib || !ORDERED_LIBS.contains(&file.crate_name.as_str()) {
        return;
    }
    let idents = hash_idents(file);
    if idents.is_empty() {
        return;
    }
    /// How far below an iteration site a `.sort…` call still counts as
    /// "the order is canonicalised before it can escape".
    const SORT_WINDOW: usize = 10;
    const ITER_METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
    ];
    for (i, line) in lib_lines(file) {
        let mut hit: Option<String> = None;
        for ident in &idents {
            let direct = ITER_METHODS
                .iter()
                .any(|m| line.code.contains(&format!("{ident}{m}")));
            let in_for = line.code.trim_start().starts_with("for ")
                && line
                    .code
                    .split_once(" in ")
                    .is_some_and(|(_, tail)| contains_word(tail, ident));
            if direct || in_for {
                hit = Some(ident.clone());
                break;
            }
        }
        let Some(ident) = hit else { continue };
        if allowed(file, i, "nondeterministic-iter") {
            continue;
        }
        let sorted_below = (i..file.lines.len().min(i + 1 + SORT_WINDOW))
            .any(|j| file.lines[j].code.contains(".sort"));
        if sorted_below {
            continue;
        }
        out.push(diag(
            file,
            i,
            "nondeterministic-iter",
            format!(
                "iteration over hash-ordered `{ident}` with no nearby sort: sort the \
                 result, use a BTreeMap, or add \
                 `// tidy-allow(nondeterministic-iter): <why order cannot escape>`"
            ),
        ));
    }
}

/// Collects identifiers bound to `HashMap`/`HashSet` types in this file:
/// `let` bindings and field/parameter declarations whose line names a
/// hash type, plus `let x = std::mem::take(&mut <hash ident>…)`
/// propagation (the merge loop's map-stealing idiom).
fn hash_idents(file: &SourceFile) -> Vec<String> {
    const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
    let mut idents: Vec<String> = Vec::new();
    let push = |name: &str, idents: &mut Vec<String>| {
        if !name.is_empty() && !idents.iter().any(|i| i == name) {
            idents.push(name.to_string());
        }
    };
    for (_, line) in lib_lines(file) {
        let code = line.code.as_str();
        // `contains`, not `contains_word`: `FxHashMap` must count too.
        if !HASH_TYPES.iter().any(|t| code.contains(t)) {
            continue;
        }
        // `let [mut] name(: T)? = …` with a hash type anywhere on the line.
        if let Some(after_let) = code.trim_start().strip_prefix("let ") {
            let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let name: String = after_let
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            push(&name, &mut idents);
            continue;
        }
        // Declaration position — field, parameter or struct literal:
        // `name: Vec<FxHashMap<…>>`. The binding is the identifier before
        // the first *single* colon (`::` paths don't count).
        let chars: Vec<char> = code.chars().collect();
        let single_colon = (0..chars.len()).find(|&i| {
            chars[i] == ':'
                && chars.get(i + 1) != Some(&':')
                && (i == 0 || chars[i - 1] != ':')
        });
        if let Some(at) = single_colon {
            let name: String = chars[..at]
                .iter()
                .rev()
                .take_while(|c| c.is_alphanumeric() || **c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            // Only a declaration whose *type side* names the hash type.
            let type_side: String = chars[at..].iter().collect();
            if HASH_TYPES.iter().any(|t| type_side.contains(t)) {
                push(&name, &mut idents);
            }
        }
    }
    // One propagation pass: `let w = std::mem::take(&mut self.links…)`.
    let known = idents.clone();
    for (_, line) in lib_lines(file) {
        let code = line.code.trim_start();
        let Some(after_let) = code.strip_prefix("let ") else {
            continue;
        };
        if !code.contains("mem::take(") {
            continue;
        }
        if known.iter().any(|k| contains_word(code, k)) {
            let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let name: String = after_let
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            push(&name, &mut idents);
        }
    }
    idents
}

/// **engine-contract** — `crates/core/src/engine/**` is the staged
/// orchestration layer every governed run flows through, so it carries a
/// stricter contract than the rest of the checked libraries:
///
/// * panic patterns are violations even when `tidy-allow(panic)`-
///   annotated — the escape hatch stops at the engine boundary; fallible
///   stage code returns `RockError`, full stop;
/// * every `pub` item must carry a `///` doc comment (the engine is the
///   extension surface for new stages and models).
///
/// The rule is deliberately **not** in [`ALLOWABLE_RULES`]: a
/// `tidy-allow(engine-contract)` annotation is itself an **annotation**
/// violation, so there is no way to opt a site out.
pub fn check_engine_contract(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || !file.rel.starts_with("crates/core/src/engine/") {
        return;
    }
    const PANICS: &[&str] = &[".unwrap()", ".expect(", "panic!(", "unreachable!("];
    const ITEMS: &[&str] = &[
        "struct ", "enum ", "trait ", "fn ", "type ", "const ", "mod ", "union ",
    ];
    for (i, line) in lib_lines(file) {
        if let Some(pat) = PANICS.iter().find(|p| line.code.contains(**p)) {
            out.push(diag(
                file,
                i,
                "engine-contract",
                format!(
                    "`{pat}…` in engine code: stages and the pipeline are panic-free \
                     by contract (no tidy-allow escape); return a RockError instead"
                ),
            ));
        }
        let trimmed = line.code.trim_start();
        if let Some(mut rest) = trimmed.strip_prefix("pub ") {
            for modifier in ["unsafe ", "async "] {
                rest = rest.strip_prefix(modifier).unwrap_or(rest);
            }
            if ITEMS.iter().any(|item| rest.starts_with(item)) && !doc_comment_above(file, i) {
                out.push(diag(
                    file,
                    i,
                    "engine-contract",
                    "public engine item without a `///` doc comment: the engine is the \
                     stage/model extension surface and its API must be documented"
                        .to_string(),
                ));
            }
        }
    }
}

/// True if the nearest line above `idx` that is not an outer attribute is
/// a `///` doc comment. (Attribute detection is line-oriented: a
/// multi-line `#[derive(…)]` hides the doc above it — keep attributes on
/// one line in engine code.)
fn doc_comment_above(file: &SourceFile, idx: usize) -> bool {
    for j in (0..idx).rev() {
        let l = &file.lines[j];
        if l.code.trim().starts_with("#[") {
            continue;
        }
        // `/// text` scans to empty code and a comment starting with `/`.
        return l.code.trim().is_empty() && l.comment.trim_start().starts_with('/');
    }
    false
}

/// **unsafe-block** — every `unsafe` occurrence in code must carry an
/// adjacent `// SAFETY:` comment (same line or the three lines above)
/// justifying it. Applies to *all* files, shims and tests included.
pub fn check_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in file.lines.iter().enumerate() {
        if !contains_word(&line.code, "unsafe") {
            continue;
        }
        // `#![forbid(unsafe_code)]` mentions unsafe_code, not the keyword;
        // contains_word already rejects it, but `forbid(unsafe)` doesn't
        // exist, so anything matching here is the real keyword.
        let lo = i.saturating_sub(3);
        let documented = (lo..=i).any(|j| file.lines[j].comment.trim_start().starts_with("SAFETY:"));
        if !documented && !allowed(file, i, "unsafe-block") {
            out.push(diag(
                file,
                i,
                "unsafe-block",
                "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            ));
        }
    }
}

/// **forbid-unsafe** — every workspace library root (`crates/*/src/lib.rs`,
/// `shims/*/src/lib.rs`) must carry `#![forbid(unsafe_code)]`, so unsafe
/// cannot creep into a crate without a deliberate, reviewed lift of the
/// attribute (annotated with `tidy-allow(forbid-unsafe)`).
pub fn check_forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let is_lib_root = (file.rel.starts_with("crates/") || file.rel.starts_with("shims/"))
        && file.rel.ends_with("/src/lib.rs");
    if !is_lib_root {
        return;
    }
    let has = file
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    let lifted = file
        .lines
        .iter()
        .enumerate()
        .any(|(i, _)| allowed(file, i, "forbid-unsafe"));
    if !has && !lifted {
        out.push(Diagnostic {
            file: file.rel.clone(),
            line: 1,
            rule: "forbid-unsafe",
            message: "library root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// **debris** — `dbg!`, `todo!` and `unimplemented!` are development
/// debris and must not be committed anywhere, tests included.
pub fn check_debris(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const PATTERNS: &[&str] = &["dbg!(", "todo!(", "unimplemented!("];
    for (i, line) in file.lines.iter().enumerate() {
        for &pat in PATTERNS {
            if line.code.contains(pat) && !allowed(file, i, "debris") {
                out.push(diag(
                    file,
                    i,
                    "debris",
                    format!("development debris `{pat}...)` must not be committed"),
                ));
            }
        }
    }
}

/// Allocation patterns forbidden inside marked kernel hot loops. Each
/// entry is `(pattern, what)`.
const KERNEL_ALLOC_PATTERNS: &[(&str, &str)] = &[
    ("Vec::new(", "`Vec::new` allocates on first push"),
    ("vec![", "`vec![...]` allocates"),
    ("::with_capacity(", "`with_capacity` allocates"),
    ("HashMap::new(", "`HashMap::new` allocates on first insert"),
    ("HashMap::default(", "hash-map construction allocates on first insert"),
    ("HashSet::new(", "`HashSet::new` allocates on first insert"),
    ("BTreeMap::new(", "`BTreeMap::new` allocates per node"),
    ("Box::new(", "`Box::new` allocates"),
    (".to_vec()", "`.to_vec()` allocates a fresh buffer"),
    (".collect(", "`.collect()` allocates its container"),
    ("format!(", "`format!` allocates a String"),
    ("String::new(", "`String::new` allocates on first push"),
    (".to_string()", "`.to_string()` allocates"),
];

/// **kernel-alloc** — per-iteration allocation is how a kernel quietly
/// loses an order of magnitude: a `Vec::new` inside the scatter loop
/// turns O(pairs) arithmetic into O(pairs) malloc round-trips. The hot
/// loops of the checked libraries are delimited with marker comments
///
/// ```text
/// // tidy:kernel-hot-loop — <what this loop does>
///     ...the loop body: no allocation allowed...
/// // tidy:end-kernel-hot-loop
/// ```
///
/// and inside a region every allocating construction
/// (`KERNEL_ALLOC_PATTERNS`) is a violation unless it carries a
/// `tidy-allow(kernel-alloc)` annotation stating why the allocation is
/// amortised (e.g. runs once per shard, not once per element). Scratch
/// buffers belong *above* the marker; the bench harness's counting
/// allocator measures the same invariant dynamically. An opened region
/// that is never closed is itself a violation, so a deleted end marker
/// cannot silently disable the rule for the rest of the file.
pub fn check_kernel_alloc(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || !CHECKED_LIBS.contains(&file.crate_name.as_str()) {
        return;
    }
    let mut open_at: Option<usize> = None;
    for (i, line) in file.lines.iter().enumerate() {
        let comment = line.comment.trim_start();
        if comment.starts_with("tidy:end-kernel-hot-loop") {
            open_at = None;
            continue;
        }
        if comment.starts_with("tidy:kernel-hot-loop") {
            open_at = Some(i);
            continue;
        }
        if open_at.is_none() || file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if let Some(&(pat, what)) = KERNEL_ALLOC_PATTERNS
            .iter()
            .find(|(p, _)| line.code.contains(p))
        {
            if !allowed(file, i, "kernel-alloc") {
                out.push(diag(
                    file,
                    i,
                    "kernel-alloc",
                    format!(
                        "{what} inside a kernel hot loop (`{pat}…`): hoist the buffer \
                         above the tidy:kernel-hot-loop marker or add \
                         `// tidy-allow(kernel-alloc): <why this is amortised>`"
                    ),
                ));
            }
        }
    }
    if let Some(at) = open_at {
        out.push(diag(
            file,
            at,
            "kernel-alloc",
            "tidy:kernel-hot-loop region is never closed: add \
             `// tidy:end-kernel-hot-loop` after the loop body"
                .to_string(),
        ));
    }
}

/// Crate-path roots a library file may import from: the language/std
/// roots, the workspace's own crates, and the vendored offline shims.
const CONFINED_ROOTS: &[&str] = &[
    // Language and path roots.
    "std", "core", "alloc", "crate", "self", "super",
    // Workspace crates (lib names as written in `use` paths).
    "rock", "rock_core", "rock_data", "rock_baselines", "rock_eval", "rock_tidy",
    // Vendored shims (shims/<name> in-tree).
    "rayon", "rand", "proptest", "criterion",
];

/// **shims-confined** — the workspace builds fully offline: library and
/// shim code may only import std, workspace crates and the vendored
/// shims (`rayon`/`rand`/`proptest`/`criterion`). A `use serde::…`
/// compiles locally only if someone added a registry dependency, which
/// breaks the no-network build invariant — flag it at the import, before
/// the manifest diff is even read.
pub fn check_shims_confined(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !matches!(file.kind, FileKind::Lib | FileKind::Shim) {
        return;
    }
    // Modules the file itself declares: edition-2018 uniform paths let a
    // crate root write `use rules::check_file;` for its own `mod rules;`.
    let local_mods: Vec<String> = file
        .lines
        .iter()
        .filter_map(|l| {
            let t = l.code.trim_start();
            let rest = t
                .strip_prefix("pub mod ")
                .or_else(|| t.strip_prefix("mod "))?;
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            (!name.is_empty()).then_some(name)
        })
        .collect();
    for (i, line) in file.lines.iter().enumerate() {
        let t = line.code.trim_start();
        let rest = t
            .strip_prefix("pub use ")
            .or_else(|| t.strip_prefix("pub(crate) use "))
            .or_else(|| t.strip_prefix("use "))
            .or_else(|| t.strip_prefix("extern crate "));
        let Some(rest) = rest else { continue };
        let root: String = rest
            .trim_start_matches("::")
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if root.is_empty()
            || CONFINED_ROOTS.contains(&root.as_str())
            || local_mods.iter().any(|m| m == &root)
            // An uppercase root is a type in scope (`use Edibility::{…}`
            // for a local enum), never an external crate.
            || root.chars().next().is_some_and(char::is_uppercase)
        {
            continue;
        }
        if !allowed(file, i, "shims-confined") {
            out.push(diag(
                file,
                i,
                "shims-confined",
                format!(
                    "import from `{root}`: library code may only depend on std, \
                     workspace crates and the vendored shims (offline-build \
                     invariant); vendor a shim under shims/ or drop the dependency"
                ),
            ));
        }
    }
}

/// **shim-doc** — each vendored shim must document, in its crate-level
/// doc comment, that it is an offline stand-in and which API subset it
/// carries; otherwise a future reader mistakes it for the real crate.
pub fn check_shim_doc(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Shim || !file.rel.ends_with("/src/lib.rs") {
        return;
    }
    let doc: String = file
        .lines
        .iter()
        .take(40)
        .map(|l| l.comment.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let ok = (doc.contains("stand-in") || doc.contains("vendor"))
        && (doc.contains("subset") || doc.contains("slice"));
    if !ok {
        out.push(Diagnostic {
            file: file.rel.clone(),
            line: 1,
            rule: "shim-doc",
            message: "shim crate doc must state it is an offline stand-in and name the \
                      vendored API subset"
                .to_string(),
        });
    }
}

/// Runs every per-file rule on `file`.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_annotations(file, &mut out);
    check_panic(file, &mut out);
    check_wall_clock(file, &mut out);
    check_file_io(file, &mut out);
    check_float_ordering(file, &mut out);
    check_nondeterministic_iter(file, &mut out);
    check_engine_contract(file, &mut out);
    check_kernel_alloc(file, &mut out);
    check_unsafe(file, &mut out);
    check_forbid_unsafe(file, &mut out);
    check_debris(file, &mut out);
    check_shim_doc(file, &mut out);
    check_shims_confined(file, &mut out);
    out
}
