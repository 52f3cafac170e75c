//! `rock-tidy` — the workspace's static-analysis pass.
//!
//! PRs 2–3 made bit-identical clustering (across thread counts, crashes
//! and resumes) the repo's core guarantee, but property tests only catch
//! a nondeterminism *after* it ships. This crate turns the underlying
//! invariants into machine-checked rules, rustc-`tidy` style: a
//! zero-dependency binary walks the workspace sources and enforces the
//! catalog in [`rules`] —
//!
//! * **determinism** — no hash-ordered iteration feeding output, merge
//!   order or WAL bytes in `rock-core`; no wall-clock reads outside the
//!   timing modules; float orderings via `total_cmp`;
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!` in library code of
//!   the checked crates (fallible paths return `RockError`);
//! * **unsafe audit** — `#![forbid(unsafe_code)]` on every library root,
//!   `// SAFETY:` on every `unsafe` occurrence anywhere;
//! * **hygiene** — no committed `dbg!`/`todo!`, shims document their
//!   vendored API subset, CHANGES.md carries an entry per PR;
//! * **engine contract** — the staged pipeline engine
//!   (`crates/core/src/engine/**`) is panic-free with *no* `tidy-allow`
//!   escape hatch, and every public engine item is documented;
//! * **call graph and reach** ([`deep`]) — panic-reach, lock-order,
//!   counter-coverage, error-coverage and pub-reach: a bare `pub fn` in
//!   the library crates needs a caller outside its crate (rockbench's
//!   sources are read as callers only).
//!
//! Sites that are sound for a reason the checker cannot see carry a
//! `// tidy-allow(<rule>): <reason>` annotation; the reason is mandatory
//! and annotations naming unknown rules are themselves violations. See
//! DESIGN.md § "Static invariants" for the catalog and grammar.
//!
//! Run `cargo run -p rock-tidy -- --ci` (CI does, before the build).

#![forbid(unsafe_code)]

pub mod deep;
pub mod graph;
pub mod items;
pub mod lex;
pub mod rules;
pub mod scan;

pub use rules::{check_file, Diagnostic, FileKind, SourceFile};

use std::fs;
use std::path::{Path, PathBuf};

/// Classifies a workspace-relative path; `None` means "not checked"
/// (non-Rust files, build output, and the seeded-violation fixtures that
/// exist precisely to fail these rules).
pub fn classify(rel: &str) -> Option<(FileKind, String)> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let mut parts = rel.split('/');
    match parts.next()? {
        "target" | ".git" => None,
        "crates" => {
            let krate = parts.next()?;
            match parts.next()? {
                // The fixture files under crates/tidy/tests/fixtures each
                // seed one violation on purpose; the rule tests scan them
                // explicitly, the workspace pass must not.
                "tests" if krate == "tidy" => None,
                "src" => {
                    if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
                        Some((FileKind::Bin, krate.to_string()))
                    } else {
                        Some((FileKind::Lib, krate.to_string()))
                    }
                }
                "tests" | "examples" | "benches" => {
                    Some((FileKind::TestOrExample, krate.to_string()))
                }
                _ => None,
            }
        }
        "shims" => {
            let krate = parts.next()?;
            match parts.next()? {
                "src" => Some((FileKind::Shim, format!("shims/{krate}"))),
                "tests" => Some((FileKind::TestOrExample, format!("shims/{krate}"))),
                _ => None,
            }
        }
        "src" => Some((FileKind::Lib, "rock".to_string())),
        "tests" | "examples" | "benches" => Some((FileKind::TestOrExample, "rock".to_string())),
        _ => None,
    }
}

/// Rockbench's sources (`rockbench/src/*.rs`, a workspace of its own
/// that calls the library crates): loaded as [`FileKind::Caller`], so
/// `pub-reach` counts the names they use while [`classify`] keeps them
/// out of every rule.
fn caller_only(rel: &str) -> Option<(FileKind, String)> {
    rel.starts_with("rockbench/src/")
        .then(|| (FileKind::Caller, "rockbench".to_string()))
}

/// Reads and scans one file into a [`SourceFile`] ready for checking.
pub fn load_source(rel: &str, kind: FileKind, crate_name: String, text: &str) -> SourceFile {
    let lines = scan::scan(text);
    let in_test = scan::test_regions(&lines);
    SourceFile {
        rel: rel.to_string(),
        kind,
        crate_name,
        lines,
        in_test,
    }
}

/// Recursively collects every checkable `.rs` file under `root`.
fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Loads every checkable file of the workspace at `root` into memory.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Some((kind, crate_name)) = classify(&rel).or_else(|| caller_only(&rel)) else {
            continue;
        };
        let text = fs::read_to_string(&path)?;
        files.push(load_source(&rel, kind, crate_name, &text));
    }
    Ok(files)
}

/// Runs every check — per-file rules and the call-graph-wide deep
/// families — over already-loaded workspace sources. Split from
/// [`run_workspace`] so tests can check patched in-memory sources (e.g.
/// "does swapping two lock acquisitions fail the gate").
pub fn check_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        out.extend(check_file(file));
    }
    out.extend(deep::check_deep(files));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Runs the full pass over the workspace at `root`.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree; rule
/// violations are *not* errors — they are the returned diagnostics.
pub fn run_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let files = load_workspace(root)?;
    let mut out = check_sources(&files);
    check_changelog(root, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// **changelog** — every PR appends one line to CHANGES.md, and every
/// entry line keeps the `PR <n>: <summary>` shape (no list bullets, no
/// drifting formats): the file is the cross-session protocol log and
/// tools parse it by that shape.
fn check_changelog(root: &Path, out: &mut Vec<Diagnostic>) {
    let path = root.join("CHANGES.md");
    let Ok(text) = fs::read_to_string(&path) else {
        out.push(Diagnostic {
            file: "CHANGES.md".to_string(),
            line: 0,
            rule: "changelog",
            message: "CHANGES.md must exist and carry at least one `PR …` entry".to_string(),
        });
        return;
    };
    let mut entries = 0usize;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        // Headings and blank lines are fine; everything else must be an
        // entry of the canonical shape.
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let well_formed = t
            .strip_prefix("PR ")
            .and_then(|r| {
                let digits = r.chars().take_while(char::is_ascii_digit).count();
                (digits > 0).then(|| &r[digits..])
            })
            .is_some_and(|r| r.starts_with(": "));
        if well_formed {
            entries += 1;
        } else {
            out.push(Diagnostic {
                file: "CHANGES.md".to_string(),
                line: i + 1,
                rule: "changelog",
                message: format!(
                    "CHANGES.md line does not match the `PR <n>: <summary>` entry \
                     shape (got `{}…`)",
                    t.chars().take(40).collect::<String>()
                ),
            });
        }
    }
    if entries == 0 {
        out.push(Diagnostic {
            file: "CHANGES.md".to_string(),
            line: 0,
            rule: "changelog",
            message: "CHANGES.md must exist and carry at least one `PR …` entry".to_string(),
        });
    }
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Serializes diagnostics as a JSON array (hand-rolled: this crate is
/// zero-dependency by design).
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                esc(&d.file),
                d.line,
                esc(d.rule),
                esc(&d.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_workspace_layout() {
        assert_eq!(
            classify("crates/core/src/heap.rs"),
            Some((FileKind::Lib, "core".to_string()))
        );
        assert_eq!(
            classify("crates/bench/src/bin/sweep.rs"),
            Some((FileKind::Bin, "bench".to_string()))
        );
        assert_eq!(
            classify("shims/rand/src/lib.rs"),
            Some((FileKind::Shim, "shims/rand".to_string()))
        );
        assert_eq!(
            classify("src/lib.rs"),
            Some((FileKind::Lib, "rock".to_string()))
        );
        assert_eq!(
            classify("tests/proptests.rs"),
            Some((FileKind::TestOrExample, "rock".to_string()))
        );
        assert_eq!(classify("crates/tidy/tests/fixtures/panic_unwrap.rs"), None);
        assert_eq!(classify("rockbench/src/main.rs"), None);
        assert_eq!(
            caller_only("rockbench/src/main.rs"),
            Some((FileKind::Caller, "rockbench".to_string()))
        );
        assert_eq!(classify("target/debug/build/foo.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn json_escapes_quotes() {
        let d = vec![Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: "panic",
            message: "say \"no\"".into(),
        }];
        assert_eq!(
            to_json(&d),
            "[{\"file\":\"a.rs\",\"line\":3,\"rule\":\"panic\",\"message\":\"say \\\"no\\\"\"}]"
        );
    }
}
