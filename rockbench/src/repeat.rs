//! `--all`: every workload in its own child process, repeated over seeds,
//! with the spread of each end-to-end metric judged against its bound.
//!
//! This is how the bounds in the catalog were set, and how two sets of
//! runs of the same code are shown to agree within them.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, ALL};
use std::collections::BTreeMap;
use std::process::Command;

/// How the repeat tool is driven.
pub struct RepeatArgs {
    /// Runs per workload in each set.
    pub repeat: usize,
    /// Independent sets; each later set's medians are compared to the first's.
    pub sets: usize,
    /// Seed of the first run; every run gets its own.
    pub seed: u64,
    /// `--seconds` passed to each run.
    pub seconds: f64,
}

/// `values[workload][metric]` over one set's runs.
type SetValues = BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>>;

/// Runs the sets and prints the tables. Returns whether every run passed
/// its checks.
pub fn run(args: &RepeatArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_ok = true;
    let mut sets: Vec<SetValues> = Vec::new();
    let mut run_index = 0u64;
    for set in 0..args.sets {
        let mut values = SetValues::new();
        for _ in 0..args.repeat {
            let seed = args.seed + run_index;
            // Alternate the order so no workload always runs first.
            let mut order = ALL.to_vec();
            if run_index % 2 == 1 {
                order.reverse();
            }
            run_index += 1;
            for w in order {
                let output = Command::new(&exe)
                    .args(["--workload", w.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                    .output()
                    .map_err(|e| format!("spawning {}: {e}", w.name()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                match parse_result(stdout.lines().last().unwrap_or("")) {
                    Ok(metrics) if output.status.success() => {
                        let shown: Vec<String> = metrics
                            .iter()
                            .map(|(name, v)| format!("{name}={v:.6}"))
                            .collect();
                        eprintln!("set {set} seed {seed} {}: {}", w.name(), shown.join(" "));
                        for (name, v) in metrics {
                            values
                                .entry(w.name())
                                .or_default()
                                .entry(name)
                                .or_default()
                                .push(v);
                        }
                    }
                    parsed => {
                        all_ok = false;
                        eprintln!(
                            "set {set} seed {seed} {}: exit {:?}, result {parsed:?}\n{}",
                            w.name(),
                            output.status.code(),
                            String::from_utf8_lossy(&output.stderr)
                        );
                    }
                }
            }
        }
        print_set(set, &values);
        sets.push(values);
    }
    for (k, later) in sets.iter().enumerate().skip(1) {
        print_comparison(k, &sets[0], later);
    }
    Ok(all_ok)
}

/// The end-to-end values of a result line that reports a correct run
/// with no failed operation.
fn parse_result(line: &str) -> Result<Vec<(&'static str, f64)>, String> {
    let v = Json::parse(line)?;
    if v.get("correct") != Some(&Json::Bool(true)) {
        return Err("the run's output was not correct".into());
    }
    if v.get("failed").and_then(Json::num) != Some(0.0) {
        return Err("operations failed".into());
    }
    let metrics = v.get("metrics").and_then(Json::obj).ok_or("no metrics")?;
    let mut out = Vec::new();
    for m in END_TO_END {
        let value = metrics
            .get(m.name)
            .and_then(|x| x.get("value"))
            .and_then(Json::num)
            .ok_or_else(|| format!("missing {}", m.name))?;
        out.push((m.name, value));
    }
    Ok(out)
}

fn print_set(set: usize, values: &SetValues) {
    println!("\nset {set}: spread = (q3 - q1) / median, range = (max - min) / median");
    println!(
        "{:<14} {:<12} {:>3} {:>13} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "range", "bound"
    );
    for w in ALL.iter().map(|w| w.name()) {
        for m in END_TO_END {
            let Some(v) = values.get(w).and_then(|m2| m2.get(m.name)) else {
                continue;
            };
            let (Some(med), Some([q1, _, q3])) = (median(v), quartiles(v)) else {
                println!(
                    "{w:<14} {:<12} {:>3} (too few runs for quartiles)",
                    m.name,
                    v.len()
                );
                continue;
            };
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            let spread = relative(q3 - q1, med);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if m.name == "setup_s" {
                "not judged"
            } else if spread < bound / 3.0 {
                "ok"
            } else if spread <= bound {
                "wide (over a third of the bound)"
            } else {
                "OVER the bound"
            };
            println!(
                "{w:<14} {:<12} {:>3} {med:>13.6} {q1:>13.6} {q3:>13.6} {spread:>8.4} {:>8.4} {bound:>6}  {verdict}",
                m.name,
                v.len(),
                relative(max - min, med),
            );
        }
    }
}

fn print_comparison(k: usize, first: &SetValues, later: &SetValues) {
    println!("\nset {k} against set 0: worsening of the median, as a share of set 0's");
    println!(
        "{:<14} {:<12} {:>13} {:>13} {:>9} {:>6}  verdict",
        "workload", "metric", "median 0", "median k", "worse", "bound"
    );
    for w in ALL.iter().map(|w: &Workload| w.name()) {
        for m in END_TO_END {
            let get = |s: &SetValues| s.get(w).and_then(|x| x.get(m.name)).and_then(|v| median(v));
            let (Some(a), Some(b)) = (get(first), get(later)) else {
                continue;
            };
            let worse = match m.better {
                Better::Lower => relative(b - a, a),
                Better::Higher => relative(a - b, a),
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse <= bound {
                "ok"
            } else {
                "WORSE than the bound"
            };
            println!(
                "{w:<14} {:<12} {a:>13.6} {b:>13.6} {worse:>9.4} {bound:>6}  {verdict}",
                m.name
            );
        }
    }
}

fn relative(delta: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        delta / base.abs()
    }
}
