//! The workspace call graph: name-based resolution over the extracted
//! [`FnItem`]s plus reachability queries with path reconstruction.
//!
//! Resolution is deliberately conservative (an over-approximation): a
//! call resolves to *every* workspace function the lexical evidence
//! allows — same name, compatible qualifier, and defined in a crate the
//! caller's crate actually depends on. The reachability rules built on
//! top therefore may report a path the type system would rule out, but
//! can never miss one the source shows; a false edge costs an annotation
//! with a written invariant, a missed edge would cost a production
//! panic.
//!
//! The dependency restriction is what keeps the over-approximation
//! tolerable: a `.iter()` call in `rock-core` cannot resolve into the
//! `criterion` shim because `rock-core` does not depend on it. The map
//! mirrors the workspace `Cargo.toml`s; crates not listed (fixture
//! workspaces in tests) resolve permissively.

use std::collections::{BTreeMap, VecDeque};

use crate::items::{extract, CallSite, FnItem};
use crate::rules::{FileKind, SourceFile};

/// Compile-time dependency closure, by classifier crate name
/// (`core`, `data`, …, `shims/rand`). Mirrors the crate manifests;
/// entries list *direct* dependencies — [`WorkspaceModel::build`]
/// computes the transitive closure.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("core", &["shims/rand"]),
    ("data", &["core", "shims/rand"]),
    ("baselines", &["core", "shims/rand"]),
    ("eval", &["core"]),
    ("bench", &["core", "baselines", "data", "eval", "shims/rand"]),
    ("rock", &["core", "baselines", "data", "eval", "shims/rand"]),
    ("tidy", &[]),
    ("shims/rand", &[]),
    ("shims/proptest", &[]),
    ("shims/criterion", &[]),
];

/// `use`-path crate names mapped to classifier names, for resolving
/// `rock_core::perf::…`-style qualifiers.
const CRATE_ALIASES: &[(&str, &str)] = &[
    ("rock_core", "core"),
    ("rock_data", "data"),
    ("rock_baselines", "baselines"),
    ("rock_eval", "eval"),
    ("rock_tidy", "tidy"),
    ("rand", "shims/rand"),
    ("proptest", "shims/proptest"),
    ("criterion", "shims/criterion"),
];

/// True when code in `from` may call into `to` (same crate, a
/// transitive dependency, or either crate is unknown to the map —
/// fixture workspaces resolve permissively).
pub(crate) fn crate_reaches(from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let known = |c: &str| CRATE_DEPS.iter().any(|(n, _)| *n == c);
    if !known(from) || !known(to) {
        return true;
    }
    // Transitive walk over the (tiny) static table.
    let mut stack = vec![from];
    let mut seen = vec![from];
    while let Some(c) = stack.pop() {
        let deps = CRATE_DEPS
            .iter()
            .find(|(n, _)| *n == c)
            .map(|(_, d)| *d)
            .unwrap_or(&[]);
        for &d in deps {
            if d == to {
                return true;
            }
            if !seen.contains(&d) {
                seen.push(d);
                stack.push(d);
            }
        }
    }
    false
}

/// The extracted functions of a workspace plus resolution indices.
pub struct WorkspaceModel {
    /// Every non-test function of every `Lib`/`Shim` file, in file order.
    pub fns: Vec<FnItem>,
    /// Function name → indices into `fns` (BTreeMap for deterministic
    /// iteration — diagnostics must not depend on hash order).
    by_name: BTreeMap<String, Vec<usize>>,
}

impl WorkspaceModel {
    /// Extracts and indexes every non-test function from the `Lib` and
    /// `Shim` files of `files`. Test/bench/example code is out of model:
    /// the deep rules guard the shipped library surface.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut fns: Vec<FnItem> = Vec::new();
        for file in files {
            if !matches!(file.kind, FileKind::Lib | FileKind::Shim) {
                continue;
            }
            fns.extend(extract(file).into_iter().filter(|f| !f.in_test));
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        WorkspaceModel { fns, by_name }
    }

    /// Resolves one call site to candidate function indices.
    pub fn resolve(&self, caller: &FnItem, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let reachable =
            |idx: &&usize| crate_reaches(&caller.crate_name, &self.fns[**idx].crate_name);
        if call.is_method {
            // `.name(…)`: any owned method with the name in a reachable
            // crate. Free functions can't be method-called.
            return cands
                .iter()
                .filter(|&&i| self.fns[i].owner.is_some())
                .filter(reachable)
                .copied()
                .collect();
        }
        if call.path.is_empty() {
            // Bare `name(…)`: free functions in the caller's crate or a
            // dependency (imported names resolve there too).
            return cands
                .iter()
                .filter(|&&i| self.fns[i].owner.is_none())
                .filter(reachable)
                .copied()
                .collect();
        }
        // Qualified `a::b::name(…)`: the innermost segment must match the
        // callee's owner type, enclosing module, or crate. `crate::…` and
        // `self::…` additionally pin the callee to the caller's crate.
        let mut seg = call.path.last().map(String::as_str).unwrap_or("");
        if seg == "Self" {
            // `Self::new(…)` — the impl block's type, known at the caller.
            seg = caller.owner.as_deref().unwrap_or("Self");
        }
        let first = call.path.first().map(String::as_str).unwrap_or("");
        let same_crate_only = first == "crate" || first == "self";
        let alias_crate = CRATE_ALIASES
            .iter()
            .find(|(a, _)| *a == seg || *a == first)
            .map(|(_, c)| *c);
        cands
            .iter()
            .filter(|&&i| {
                let f = &self.fns[i];
                if same_crate_only && f.crate_name != caller.crate_name {
                    // `crate::name(…)` with no module segment still lands
                    // here via seg == "crate".
                    return false;
                }
                let seg_matches = f.owner.as_deref() == Some(seg)
                    || f.module.last().map(String::as_str) == Some(seg)
                    || alias_crate == Some(f.crate_name.as_str())
                    || seg == "crate"
                    || seg == "self";
                seg_matches
            })
            .filter(reachable)
            .copied()
            .collect()
    }

    /// Resolved callee indices of `fns[idx]`, deduplicated, in order.
    pub fn callees(&self, idx: usize) -> Vec<usize> {
        let caller = &self.fns[idx];
        let mut out: Vec<usize> = Vec::new();
        for call in &caller.calls {
            for c in self.resolve(caller, call) {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// BFS from `roots` over resolved call edges. Returns one
    /// `Option<parent>` per function: `Some(parent)` for reached
    /// functions (`parent == self` marks a root), `None` for unreached.
    pub fn reach_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(at) = queue.pop_front() {
            for c in self.callees(at) {
                if parent[c].is_none() {
                    parent[c] = Some(at);
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// Reconstructs the root → … → `idx` call chain from a
    /// [`Self::reach_from`] parent array, as display paths.
    pub fn chain(&self, parents: &[Option<usize>], idx: usize) -> Vec<String> {
        let mut rev = vec![idx];
        let mut at = idx;
        while let Some(p) = parents[at] {
            if p == at {
                break;
            }
            rev.push(p);
            at = p;
        }
        rev.iter().rev().map(|&i| self.fns[i].display_path()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_source;

    fn model(files: &[(&str, &str, FileKind, &str)]) -> WorkspaceModel {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, krate, kind, src)| load_source(rel, *kind, krate.to_string(), src))
            .collect();
        WorkspaceModel::build(&sources)
    }

    #[test]
    fn bare_and_qualified_calls_resolve() {
        let m = model(&[(
            "crates/core/src/a.rs",
            "core",
            FileKind::Lib,
            "pub fn top() { helper(); perf::count(1); }\n\
             pub fn helper() {}\n",
        ), (
            "crates/core/src/perf.rs",
            "core",
            FileKind::Lib,
            "pub fn count(n: u64) {}\n",
        )]);
        let top = m.fns.iter().position(|f| f.name == "top").expect("top");
        let names: Vec<&str> = m.callees(top).iter().map(|&i| m.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["helper", "count"]);
    }

    #[test]
    fn dependency_map_limits_resolution() {
        // `core` calling `.run()` must not resolve into criterion's
        // same-named method: core does not depend on criterion.
        let m = model(&[(
            "crates/core/src/a.rs",
            "core",
            FileKind::Lib,
            "pub fn go(x: &X) { x.run(); }\n",
        ), (
            "shims/criterion/src/lib.rs",
            "shims/criterion",
            FileKind::Shim,
            "pub struct C;\nimpl C { pub fn run(&self) { panic!(\"x\") } }\n",
        ), (
            "shims/rand/src/lib.rs",
            "shims/rand",
            FileKind::Shim,
            "pub struct S;\nimpl S { pub fn run(&self) {} }\n",
        )]);
        let go = m.fns.iter().position(|f| f.name == "go").expect("go");
        let crates: Vec<&str> = m
            .callees(go)
            .iter()
            .map(|&i| m.fns[i].crate_name.as_str())
            .collect();
        assert_eq!(crates, vec!["shims/rand"]);
    }

    #[test]
    fn reachability_with_chain() {
        let m = model(&[(
            "crates/core/src/a.rs",
            "core",
            FileKind::Lib,
            "pub fn root() { mid(); }\n\
             pub fn mid() { leaf(); }\n\
             pub fn leaf() {}\n\
             pub fn island() {}\n",
        )]);
        let root = m.fns.iter().position(|f| f.name == "root").expect("root");
        let leaf = m.fns.iter().position(|f| f.name == "leaf").expect("leaf");
        let island = m.fns.iter().position(|f| f.name == "island").expect("island");
        let parents = m.reach_from(&[root]);
        assert!(parents[leaf].is_some());
        assert!(parents[island].is_none());
        assert_eq!(m.chain(&parents, leaf), vec!["core::a::root", "core::a::mid", "core::a::leaf"]);
    }

    /// The direct dependencies a member's `Cargo.toml` declares under
    /// `[dependencies]`, by classifier name (`rock-core` → `core`, any
    /// other package → its shim), sorted.
    fn manifest_deps(manifest: &std::path::Path) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect("reading a member manifest");
        let mut deps: Vec<String> = text
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let package = l.split(['=', '.']).next().unwrap_or(l).trim();
                match package.strip_prefix("rock-") {
                    Some(member) => member.to_string(),
                    None => format!("shims/{package}"),
                }
            })
            .collect();
        deps.sort();
        deps
    }

    #[test]
    fn crate_deps_mirror_the_member_manifests() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut members = vec![("rock".to_string(), root.join("Cargo.toml"))];
        for (dir, prefix) in [("crates", ""), ("shims", "shims/")] {
            let mut found: Vec<_> = std::fs::read_dir(root.join(dir))
                .expect("listing workspace members")
                .map(|e| e.expect("a member directory entry").path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            found.sort();
            for path in found {
                let name = path.file_name().expect("a member name").to_string_lossy();
                members.push((format!("{prefix}{name}"), path.join("Cargo.toml")));
            }
        }
        let mut listed: Vec<&str> = CRATE_DEPS.iter().map(|&(name, _)| name).collect();
        listed.sort_unstable();
        let mut names: Vec<&str> = members.iter().map(|(name, _)| name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(listed, names, "CRATE_DEPS must list every workspace member");
        for (name, manifest) in &members {
            let mut table: Vec<&str> = CRATE_DEPS
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, deps)| deps.to_vec())
                .unwrap_or_default();
            table.sort_unstable();
            assert_eq!(
                table,
                manifest_deps(manifest),
                "CRATE_DEPS entry for `{name}` differs from its [dependencies]"
            );
        }
    }
}
