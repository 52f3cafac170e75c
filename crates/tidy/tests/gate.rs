//! Acceptance tests for the call-graph gate: deliberately breaking the
//! real workspace — in memory, never on disk — must trip the deep rule
//! families. These are the checks that keep the analysis honest: a
//! refactor that quietly stops resolving calls or tracking guards would
//! let these seeded regressions through and fail here.

use rock_tidy::{check_sources, load_source, Diagnostic, SourceFile};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// A workspace-relative path plus the in-memory patch to apply to it.
type Patch<'a> = (&'a str, &'a dyn Fn(&str) -> String);

/// Loads the real workspace, then re-loads each `(rel, patch)` file with
/// its patch applied to the raw text, and runs the full pass.
fn check_patched(patches: &[Patch<'_>]) -> Vec<Diagnostic> {
    let root = workspace_root();
    let mut files: Vec<SourceFile> =
        rock_tidy::load_workspace(&root).expect("walking the workspace");
    for (rel, patch) in patches {
        let raw = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("reading {rel}: {e}"));
        let patched = patch(&raw);
        assert_ne!(patched, raw, "the patch must change {rel}");
        let slot = files
            .iter_mut()
            .find(|f| f.rel == *rel)
            .unwrap_or_else(|| panic!("{rel} not in the workspace pass"));
        let (kind, crate_name) = rock_tidy::classify(rel).expect("patched file must classify");
        *slot = load_source(rel, kind, crate_name, &patched);
    }
    check_sources(&files)
}

#[test]
fn unpatched_workspace_is_clean() {
    // The baseline the regression tests below perturb.
    let files = rock_tidy::load_workspace(&workspace_root()).expect("walking the workspace");
    let diags = check_sources(&files);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn transitive_unwrap_reachable_from_the_engine_fails_the_gate() {
    // Plant an unannotated unwrap in the retry helper and a call to it
    // in the shard supervisor: the panic site is a different file from
    // the protected root, so only the call-graph walk can connect them.
    let helper = |raw: &str| {
        format!(
            "{raw}\n/// Planted helper.\npub fn rogue_backoff(ms: Option<u64>) -> u64 {{\n    \
             ms.unwrap()\n}}\n"
        )
    };
    let caller = |raw: &str| {
        format!(
            "{raw}\n/// Planted call into the helper.\npub fn rogue_schedule() -> u64 {{\n    \
             crate::util::retry::rogue_backoff(None)\n}}\n"
        )
    };
    let diags = check_patched(&[
        ("crates/core/src/util/retry.rs", &helper),
        ("crates/core/src/engine/supervisor.rs", &caller),
    ]);
    // The per-line rule catches the site itself…
    assert!(
        diags.iter().any(|d| d.rule == "panic" && d.file.ends_with("retry.rs")),
        "{diags:#?}"
    );
    // …and the deep pass proves reachability from protected code,
    // reporting the call chain.
    let reach: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "panic-reach" && d.file.ends_with("retry.rs"))
        .collect();
    assert!(
        reach.iter().any(|d| d.message.contains("->")),
        "panic-reach must report the call chain; got {diags:#?}"
    );
}

/// The byte span of `lifetime_stats` in serve.rs, from its signature to
/// the brace that closes its body.
fn lifetime_stats_span(raw: &str) -> (usize, usize) {
    let start = raw
        .find("pub fn lifetime_stats")
        .expect("lifetime_stats in serve.rs");
    let mut depth = 0usize;
    for (i, c) in raw[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return (start, start + i + 1),
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("lifetime_stats body never closes");
}

/// Rewrites the body of `lifetime_stats` with `edit`, after checking
/// that it acquires both locks. The check reads the body with all
/// whitespace removed, so it does not depend on where rustfmt breaks a
/// line.
fn edit_lifetime_stats(raw: &str, edit: impl Fn(&str) -> String) -> String {
    let (start, end) = lifetime_stats_span(raw);
    let body = &raw[start..end];
    let flat: String = body.split_whitespace().collect();
    assert!(
        flat.contains("self.stats.lock(") && flat.contains("self.degradations.lock("),
        "expected both acquisitions inside lifetime_stats"
    );
    format!("{}{}{}", &raw[..start], edit(body), &raw[end..])
}

/// Swaps the two lock fields (text-level, wherever the chains break).
fn swap_locks(body: &str) -> String {
    body.replace(".stats", ".__tmp")
        .replace(".degradations", ".stats")
        .replace(".__tmp", ".degradations")
}

/// Splits each acquisition chain over lines, the way rustfmt lays out
/// `let x = self.field.lock().unwrap_or_else(..);` past the width limit.
fn split_chains(body: &str) -> String {
    let indent = "\n            ";
    body.replace("self.", &format!("self{indent}."))
        .replace(".lock()", &format!("{indent}.lock()"))
        .replace(".unwrap_or_else", &format!("{indent}.unwrap_or_else"))
}

/// Asserts the gate reports the stats/degradations lock-order cycle.
fn assert_lock_cycle(diags: &[Diagnostic]) {
    let cycles: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "lock-order" && d.message.contains("cycle"))
        .collect();
    assert!(
        cycles
            .iter()
            .any(|d| d.message.contains("stats") && d.message.contains("degradations")),
        "swapping the acquisitions must surface a lock-order cycle; got {diags:#?}"
    );
}

#[test]
fn swapped_lock_acquisitions_in_serve_fail_the_gate() {
    // Reverse the two acquisitions in `lifetime_stats`: the reversed
    // order now coexists with `record_batch`'s stats → degradations
    // order, a cycle — which no tidy-allow can excuse.
    let swap = |raw: &str| edit_lifetime_stats(raw, swap_locks);
    assert_lock_cycle(&check_patched(&[("crates/core/src/serve.rs", &swap)]));
}

#[test]
fn split_lock_chains_keep_their_allows_and_still_show_a_swap() {
    // Splitting the chains alone changes nothing: the allows above each
    // `let` still cover the acquisitions.
    let split = |raw: &str| edit_lifetime_stats(raw, split_chains);
    let diags = check_patched(&[("crates/core/src/serve.rs", &split)]);
    assert!(
        !diags.iter().any(|d| d.rule == "lock-order"),
        "split chains must keep the gate clean; got {diags:#?}"
    );
    // Split, then swapped: the cycle must still surface.
    let split_swap = |raw: &str| edit_lifetime_stats(raw, |b| swap_locks(&split_chains(b)));
    assert_lock_cycle(&check_patched(&[("crates/core/src/serve.rs", &split_swap)]));
}
