//! rockbench — the end-to-end benchmark of the ROCK workspace.
//!
//! ```text
//! rockbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! rockbench --all [--repeat <n>] [--sets <n>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! A single run prints human-readable notes, then as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when a correctness check fails. See
//! `rockbench/README.md` for the workloads and metrics.

#![deny(unsafe_code)]

mod heap;
mod json;
mod metrics;
mod repeat;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunArgs, Workload};

const USAGE: &str = "usage: rockbench --workload <fit_dense|fit_sparse|fit_wide|serve_assign|online_update> \
--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n       rockbench --all [--repeat <n>] [--sets <n>] [--seed <n>] [--seconds <s>]";

/// Where run outputs go, inside the checkout the benchmark runs from.
const OUT_DIR: &str = ".bench_build/rockbench";

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rockbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: Vec<String>) -> Result<ExitCode, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut all = false;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--spans" | "--repeat"
            | "--sets" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.insert(arg, value);
            }
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    let num = |name: &str, default: f64| -> Result<f64, String> {
        flags.get(name).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{name} {v} is not a non-negative number"))
        })
    };
    let seed = flags.get("--seed").map_or(Ok(42), |v| {
        v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))
    })?;
    let seconds = num("--seconds", 10.0)?;

    if all {
        let args = repeat::RepeatArgs {
            repeat: (num("--repeat", 1.0)? as usize).max(1),
            sets: (num("--sets", 1.0)? as usize).max(1),
            seed,
            seconds,
        };
        let ok = repeat::run(&args)?;
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let name = flags
        .get("--workload")
        .ok_or("--workload or --all is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
    };
    let spans = flags.get("--spans").map_or_else(
        || PathBuf::from(OUT_DIR).join(format!("spans-{name}-seed{seed}.jsonl")),
        PathBuf::from,
    );
    let args = RunArgs {
        seed,
        seconds,
        trace,
        spans,
        scratch: PathBuf::from(OUT_DIR).join("scratch"),
    };

    let outcome = match workload.run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            // A workload that cannot start counts as one failed operation.
            eprintln!("rockbench: {name} (seed {seed}) failed to set up: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "workload {name}, seed {seed}, {} mode",
        if trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.mismatches {
        println!("  CHECK FAILED: {m}");
    }
    let catalog = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for m in catalog {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("  {:<36} {v:>16.6} {}", m.name, m.unit);
        }
    }
    let correct = outcome.mismatches.is_empty();
    println!(
        "{}",
        metrics::result_line(
            catalog,
            &outcome.metrics,
            correct,
            outcome.attempted,
            outcome.failed
        )?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use crate::json::Json;
    use crate::metrics::{valid_name, Metric, END_TO_END, PER_LAYER};
    use crate::workloads::ALL;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn keys(v: &Json) -> Vec<&str> {
        v.obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect()
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn assert_matches(listed: &Json, catalog: &[Metric], with_bound: bool) {
        let listed = listed.arr().expect("a metric list");
        let names: Vec<&str> = listed
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::str))
            .collect();
        let emitted: Vec<&str> = catalog.iter().map(|m| m.name).collect();
        assert_eq!(
            names, emitted,
            "BENCHMARK.json and the emitted metrics differ"
        );
        for (entry, m) in listed.iter().zip(catalog) {
            let want: &[&str] = if with_bound {
                &["better", "bound", "name", "unit"]
            } else {
                &["better", "name", "unit"]
            };
            assert_eq!(keys(entry), want, "{}", m.name);
            assert_eq!(
                entry.get("unit").and_then(Json::str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::num),
                m.bound,
                "{}",
                m.name
            );
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let b = benchmark_json();
        assert_eq!(
            keys(&b),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_matches(b.get("end_to_end").unwrap(), END_TO_END, true);
        assert_matches(b.get("per_layer").unwrap(), PER_LAYER, false);
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let b = benchmark_json();
        let listed = b.get("workloads").and_then(Json::arr).unwrap();
        let names: Vec<&str> = listed
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        let ours: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in listed {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Json::str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
    }

    #[test]
    fn benchmark_json_command_stays_inside_the_benchmark() {
        let b = benchmark_json();
        let paths: Vec<&str> = b
            .get("paths")
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert_eq!(paths, ["rockbench"]);
        let command = b.get("command").and_then(Json::arr).unwrap();
        assert!(!command.is_empty() && command.len() <= 32);
        for arg in command.iter().map(|a| a.str().expect("string arguments")) {
            assert!(
                arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
                "{arg}"
            );
            if arg.contains('/') {
                assert!(
                    arg.starts_with("rockbench/"),
                    "{arg} lies outside the benchmark's paths"
                );
            }
        }
        let seconds = b.get("run_seconds").and_then(Json::num).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    }
}
