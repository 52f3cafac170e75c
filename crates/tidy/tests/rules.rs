//! Rule-level tests over the seeded-violation fixtures.
//!
//! Each file under `tests/fixtures/` plants exactly one violation; these
//! tests scan them under a library classification and assert that the
//! expected rule — and only that rule — fires, at the expected line.
//! The flip side (annotated or restructured sites passing) is covered by
//! the `clean_*` tests below.

use rock_tidy::{check_file, check_sources, load_source, Diagnostic, FileKind};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Scans fixture `name` as if it lived at `rel` in crate `crate_name`,
/// through the full pass — per-file rules *plus* the call-graph deep
/// families (the fixtures under `scoped/` only fire at a specific path).
fn scan_scoped(name: &str, rel: &str, crate_name: &str) -> Vec<Diagnostic> {
    let file = load_source(rel, FileKind::Lib, crate_name.to_string(), &fixture(name));
    check_sources(&[file])
}

/// Scans fixture `name` as if it were rock-core library code.
fn scan_as_core_lib(name: &str) -> Vec<Diagnostic> {
    let text = fixture(name);
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        &text,
    );
    check_file(&file)
}

/// Asserts `diags` is exactly one violation of `rule` at `line`.
fn assert_single(diags: &[Diagnostic], rule: &str, line: usize) {
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one {rule} violation, got: {diags:#?}"
    );
    assert_eq!(diags[0].rule, rule);
    assert_eq!(diags[0].line, line, "wrong line: {diags:#?}");
}

#[test]
fn fixture_panic_unwrap() {
    assert_single(&scan_as_core_lib("panic_unwrap.rs"), "panic", 5);
}

#[test]
fn fixture_nondeterministic_iter() {
    assert_single(
        &scan_as_core_lib("nondeterministic_iter.rs"),
        "nondeterministic-iter",
        8,
    );
}

#[test]
fn fixture_wall_clock() {
    assert_single(&scan_as_core_lib("wall_clock.rs"), "wall-clock", 7);
}

#[test]
fn fixture_file_io() {
    assert_single(&scan_as_core_lib("file_io.rs"), "file-io", 5);
}

#[test]
fn file_io_is_sanctioned_in_boundary_modules() {
    let src = "pub fn load(p: &std::path::Path) -> std::io::Result<Vec<u8>> {\n    \
               std::fs::read(p)\n}\n";
    for rel in ["crates/core/src/wal.rs", "crates/core/src/artifact.rs"] {
        let file = load_source(rel, FileKind::Lib, "core".to_string(), src);
        let diags: Vec<_> = check_file(&file)
            .into_iter()
            .filter(|d| d.rule == "file-io")
            .collect();
        assert!(diags.is_empty(), "{rel} is a sanctioned boundary: {diags:#?}");
    }
    // The same code elsewhere in rock-core violates; other crates are
    // out of the rule's scope entirely.
    let file = load_source(
        "crates/core/src/serve.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert!(check_file(&file).iter().any(|d| d.rule == "file-io"));
    let file = load_source(
        "crates/data/src/basketio.rs",
        FileKind::Lib,
        "data".to_string(),
        src,
    );
    assert!(!check_file(&file).iter().any(|d| d.rule == "file-io"));
}

#[test]
fn fixture_float_ordering() {
    assert_single(&scan_as_core_lib("float_ordering.rs"), "float-ordering", 5);
}

#[test]
fn fixture_unsafe_block() {
    assert_single(&scan_as_core_lib("unsafe_block.rs"), "unsafe-block", 5);
}

#[test]
fn fixture_debris() {
    assert_single(&scan_as_core_lib("debris.rs"), "debris", 4);
}

#[test]
fn fixture_bad_annotation() {
    assert_single(&scan_as_core_lib("bad_annotation.rs"), "annotation", 5);
}

#[test]
fn fixture_kernel_alloc() {
    assert_single(&scan_as_core_lib("kernel_alloc.rs"), "kernel-alloc", 8);
}

#[test]
fn kernel_alloc_ignores_code_outside_regions_and_honours_allow() {
    // Allocation outside any marked region is not the rule's business.
    let outside = "pub fn f(rows: &[Vec<u32>]) -> Vec<u32> {\n    \
                   rows.concat().to_vec()\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        outside,
    );
    assert!(check_file(&file).is_empty());

    // Inside a region, a reasoned tidy-allow exempts the site.
    let allowed = "pub fn f(rows: &[Vec<u32>]) -> usize {\n    \
                   let mut total = 0;\n    \
                   // tidy:kernel-hot-loop — per-shard walk\n    \
                   for row in rows {\n        \
                   // tidy-allow(kernel-alloc): one buffer per shard, not per element\n        \
                   let copy = row.to_vec();\n        \
                   total += copy.len();\n    \
                   }\n    \
                   // tidy:end-kernel-hot-loop\n    \
                   total\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        allowed,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn kernel_alloc_unclosed_region_is_a_violation() {
    let src = "pub fn f() {\n    \
               // tidy:kernel-hot-loop — forgot the end marker\n    \
               let _x = 1;\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert_single(&check_file(&file), "kernel-alloc", 2);
}

#[test]
fn forbid_unsafe_fires_on_bare_lib_root() {
    // Any lib.rs without the attribute violates; reuse a fixture body.
    let file = load_source(
        "crates/fake/src/lib.rs",
        FileKind::Lib,
        "fake".to_string(),
        "//! A crate.\npub fn f() {}\n",
    );
    let diags: Vec<_> = check_file(&file)
        .into_iter()
        .filter(|d| d.rule == "forbid-unsafe")
        .collect();
    assert_single(&diags, "forbid-unsafe", 1);
}

#[test]
fn shim_doc_fires_on_undocumented_shim() {
    let file = load_source(
        "shims/fake/src/lib.rs",
        FileKind::Shim,
        "shims/fake".to_string(),
        "//! Some crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    let diags: Vec<_> = check_file(&file)
        .into_iter()
        .filter(|d| d.rule == "shim-doc")
        .collect();
    assert_single(&diags, "shim-doc", 1);
}

#[test]
fn annotation_without_reason_does_not_exempt() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // tidy-allow(panic)\n    x.unwrap()\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    let diags = check_file(&file);
    // Both the reasonless annotation and the unexempted site report.
    assert!(diags.iter().any(|d| d.rule == "annotation"), "{diags:#?}");
    assert!(diags.iter().any(|d| d.rule == "panic"), "{diags:#?}");
}

#[test]
fn reasoned_annotation_exempts_the_site() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    \
               // tidy-allow(panic): caller guarantees Some by construction\n    \
               x.unwrap()\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn sort_within_window_passes_hash_iteration() {
    let src = "use std::collections::HashMap;\n\
               pub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
               let mut ks: Vec<u32> = m.keys().copied().collect();\n    \
               ks.sort_unstable();\n    \
               ks\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn cfg_test_code_is_exempt_from_lib_rules() {
    let src = "pub fn lib() {}\n\
               #[cfg(test)]\n\
               mod tests {\n    \
               #[test]\n    \
               fn t() {\n        \
               Some(1).unwrap();\n    \
               }\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn patterns_in_strings_and_comments_do_not_fire() {
    let src = "pub fn f() -> &'static str {\n    \
               // .unwrap() and Instant::now in a comment are fine\n    \
               \".unwrap() inside a string is fine too\"\n}\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn fixture_shims_confined() {
    assert_single(&scan_as_core_lib("shims_confined.rs"), "shims-confined", 3);
}

#[test]
fn fixture_panic_reach() {
    assert_single(
        &scan_scoped("scoped/panic_reach.rs", "crates/core/src/serve.rs", "core"),
        "panic-reach",
        6,
    );
}

#[test]
fn fixture_lock_order() {
    assert_single(
        &scan_scoped("scoped/lock_order.rs", "crates/core/src/serve.rs", "core"),
        "lock-order",
        15,
    );
}

#[test]
fn fixture_counter_coverage() {
    assert_single(
        &scan_scoped("scoped/counter_coverage.rs", "crates/core/src/links.rs", "core"),
        "counter-coverage",
        7,
    );
}

#[test]
fn fixture_error_coverage() {
    assert_single(
        &scan_scoped("scoped/error_coverage.rs", "crates/core/src/error.rs", "core"),
        "error-coverage",
        7,
    );
}

#[test]
fn fixture_pub_reach() {
    assert_single(
        &scan_scoped("scoped/pub_reach.rs", "crates/core/src/reach.rs", "core"),
        "pub-reach",
        5,
    );
}

#[test]
fn fixture_forbid_unsafe() {
    let diags: Vec<_> = scan_scoped(
        "scoped/forbid_unsafe_lib.rs",
        "crates/fake/src/lib.rs",
        "fake",
    )
    .into_iter()
    .filter(|d| d.rule == "forbid-unsafe")
    .collect();
    assert_single(&diags, "forbid-unsafe", 1);
}

/// The meta-check behind the fixture suite: every rule that supports a
/// `tidy-allow` escape must keep at least one failing fixture under
/// `tests/fixtures/`, so adding a rule without a fixture — or silently
/// breaking a rule so its fixture passes — fails this test rather than
/// going unnoticed.
#[test]
fn every_allowable_rule_has_a_failing_fixture() {
    let registry: &[(&str, &str, &str, &str)] = &[
        ("panic", "panic_unwrap.rs", "crates/core/src/fixture.rs", "core"),
        (
            "nondeterministic-iter",
            "nondeterministic_iter.rs",
            "crates/core/src/fixture.rs",
            "core",
        ),
        ("wall-clock", "wall_clock.rs", "crates/core/src/fixture.rs", "core"),
        ("float-ordering", "float_ordering.rs", "crates/core/src/fixture.rs", "core"),
        ("file-io", "file_io.rs", "crates/core/src/fixture.rs", "core"),
        ("unsafe-block", "unsafe_block.rs", "crates/core/src/fixture.rs", "core"),
        (
            "forbid-unsafe",
            "scoped/forbid_unsafe_lib.rs",
            "crates/fake/src/lib.rs",
            "fake",
        ),
        ("debris", "debris.rs", "crates/core/src/fixture.rs", "core"),
        ("kernel-alloc", "kernel_alloc.rs", "crates/core/src/fixture.rs", "core"),
        ("panic-reach", "scoped/panic_reach.rs", "crates/core/src/serve.rs", "core"),
        ("lock-order", "scoped/lock_order.rs", "crates/core/src/serve.rs", "core"),
        (
            "counter-coverage",
            "scoped/counter_coverage.rs",
            "crates/core/src/links.rs",
            "core",
        ),
        (
            "error-coverage",
            "scoped/error_coverage.rs",
            "crates/core/src/error.rs",
            "core",
        ),
        ("pub-reach", "scoped/pub_reach.rs", "crates/core/src/reach.rs", "core"),
        ("shims-confined", "shims_confined.rs", "crates/core/src/fixture.rs", "core"),
    ];
    for rule in rock_tidy::rules::ALLOWABLE_RULES {
        let (_, name, rel, krate) = registry
            .iter()
            .find(|(r, ..)| r == rule)
            .unwrap_or_else(|| {
                panic!(
                    "rule `{rule}` has no registered failing fixture — seed one under \
                     tests/fixtures/ and register it in this table"
                )
            });
        let diags = scan_scoped(name, rel, krate);
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "fixture `{name}` must fail rule `{rule}`; got {diags:#?}"
        );
    }
}

/// Scans `src` as if it lived inside `crates/core/src/engine/`.
fn scan_as_engine(src: &str) -> Vec<Diagnostic> {
    let file = load_source(
        "crates/core/src/engine/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    check_file(&file)
}

#[test]
fn engine_contract_rejects_panic_even_with_allow() {
    let src = "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    \
               // tidy-allow(panic): caller guarantees Some by construction\n    \
               x.unwrap()\n}\n";
    let diags = scan_as_engine(src);
    // The annotation exempts the `panic` rule but not the engine contract.
    assert!(diags.iter().all(|d| d.rule != "panic"), "{diags:#?}");
    assert_single(&diags, "engine-contract", 4);
}

#[test]
fn engine_contract_requires_docs_on_pub_items() {
    let src = "pub struct Undocumented;\n";
    assert_single(&scan_as_engine(src), "engine-contract", 1);
}

#[test]
fn engine_contract_accepts_documented_attributed_items() {
    let src = "/// A documented stage.\n\
               #[derive(Clone, Debug)]\n\
               pub struct Documented {\n    \
               field: u32,\n}\n";
    assert!(scan_as_engine(src).is_empty());
}

#[test]
fn engine_contract_has_no_allow_escape() {
    // Naming the rule in a tidy-allow is itself an annotation violation.
    let src = "/// Doc.\n\
               // tidy-allow(engine-contract): trying to opt out\n\
               pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let diags = scan_as_engine(src);
    assert!(diags.iter().any(|d| d.rule == "annotation"), "{diags:#?}");
    assert!(diags.iter().any(|d| d.rule == "engine-contract"), "{diags:#?}");
}

#[test]
fn engine_contract_auto_covers_new_engine_files() {
    // The rule keys on the directory, not a file list: a file added to
    // the engine later — here the shard supervisor — is covered without
    // touching rock-tidy, and an undocumented public API fires at its
    // declaration line.
    let text = fixture("engine/supervisor_undoc.rs");
    let file = load_source(
        "crates/core/src/engine/supervisor.rs",
        FileKind::Lib,
        "core".to_string(),
        &text,
    );
    assert_single(&check_file(&file), "engine-contract", 3);
}

#[test]
fn engine_contract_only_applies_under_engine_dir() {
    let src = "pub struct Undocumented;\n";
    let file = load_source(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        "core".to_string(),
        src,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn nondeterministic_iter_covers_baselines_crate() {
    let src = "use std::collections::HashMap;\n\
               pub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
               m.keys().copied().collect()\n}\n";
    let file = load_source(
        "crates/baselines/src/fixture.rs",
        FileKind::Lib,
        "baselines".to_string(),
        src,
    );
    let diags: Vec<_> = check_file(&file)
        .into_iter()
        .filter(|d| d.rule == "nondeterministic-iter")
        .collect();
    assert_single(&diags, "nondeterministic-iter", 3);
}

#[test]
fn safety_comment_satisfies_unsafe_audit() {
    let src = "pub fn f(x: &u64) -> &i64 {\n    \
               // SAFETY: u64 and i64 have identical size and alignment.\n    \
               unsafe { &*(x as *const u64 as *const i64) }\n}\n";
    let file = load_source(
        "shims/fake/src/util.rs",
        FileKind::Shim,
        "shims/fake".to_string(),
        src,
    );
    assert!(check_file(&file).is_empty());
}

#[test]
fn rockbench_is_read_as_callers_only() {
    assert_eq!(rock_tidy::classify("rockbench/src/workloads.rs"), None);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = rock_tidy::load_workspace(&root).expect("walking the workspace");
    assert!(
        files
            .iter()
            .any(|f| f.rel.starts_with("rockbench/src/") && f.kind == FileKind::Caller),
        "the workspace pass must read rockbench's sources as callers"
    );
    // Every rule's pattern, in a caller file: no rule reports on it.
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    dbg!(x);\n    \
               // tidy-allow(bogus)\n    unsafe { x.unwrap() }\n}\n";
    let bench = load_source(
        "rockbench/src/workloads.rs",
        FileKind::Caller,
        "rockbench".to_string(),
        src,
    );
    let diags = check_sources(&[bench]);
    assert!(diags.is_empty(), "{diags:#?}");
}
