//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary under `src/bin/` reproduces one table or figure; this
//! library holds the common pieces: a minimal flag parser, aligned table
//! printing, wall-clock timing, and the standard ROCK-vs-traditional
//! drivers over categorical records. [`links_l3`] holds the length-3
//! link ablation (§3.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod links_l3;

use rock_core::engine::{ClusterModel, ModelFit};
use rock_core::error::RockError;
use rock_core::goodness::GoodnessKind;
use rock_core::points::CategoricalRecord;
use rock_core::similarity::{CategoricalJaccard, MissingPolicy};
use rock_core::{Clustering, Rock, RockRun};
use rock_eval::ModelScore;
use std::time::Instant;

/// A tiny `--flag value` / `--flag` parser for the experiment binaries.
#[derive(Debug, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from explicit strings (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Whether `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    /// Panics with a readable message if the value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        let key = format!("--{name}");
        for (i, a) in self.raw.iter().enumerate() {
            if a == &key {
                let v = self
                    .raw
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("missing value for {key}"));
                return v
                    .parse()
                    .unwrap_or_else(|e| panic!("bad value for {key}: {e}"));
            }
        }
        default
    }
}

/// Prints a header followed by aligned rows (column widths derived from
/// content).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Runs `f` and returns its result with the elapsed wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One generically-driven model fit: the fit itself, its quality scores
/// against ground truth, and the wall-clock seconds it took.
#[derive(Debug)]
pub struct ModelRun {
    /// The model's self-reported name.
    pub name: &'static str,
    /// The fitted clustering, dendrogram (if any) and run report.
    pub fit: ModelFit,
    /// External quality indices vs ground truth.
    pub score: ModelScore,
    /// Wall-clock seconds of the fit.
    pub seconds: f64,
}

/// Fits any [`ClusterModel`] on `data`, scores it against `truth` and
/// times the fit — the uniform driver for ROCK-vs-baseline comparisons.
///
/// # Errors
/// Whatever the model's `fit` surfaces (an interrupted governor, invalid
/// labeling parameters, …).
pub fn run_model<D: ?Sized, M: ClusterModel<D>>(
    model: &M,
    data: &D,
    truth: &[Option<usize>],
) -> Result<ModelRun, RockError> {
    let (result, seconds) = timed(|| model.fit(data));
    let fit = result?;
    let score = rock_eval::score_fit(&fit, truth);
    Ok(ModelRun {
        name: model.name(),
        fit,
        score,
        seconds,
    })
}

/// Renders a [`ModelRun`] as one [`print_table`] row: name, cluster
/// count, outliers, misclassified, ARI, seconds.
pub fn model_row(run: &ModelRun) -> Vec<String> {
    vec![
        run.name.to_owned(),
        run.score.num_clusters.to_string(),
        run.score.outliers.to_string(),
        run.score.misclassification.misclassified.to_string(),
        format!("{:.3}", run.score.ari),
        format!("{:.3}", run.seconds),
    ]
}

/// Runs ROCK over categorical records with the paper's standard setup
/// (§5: categorical Jaccard similarity, `f(θ) = (1−θ)/(1+θ)`).
///
/// `weed` optionally enables §4.6 mid-flight outlier weeding as
/// `(stop multiple of k, minimum cluster size)`.
pub fn rock_on_records(
    records: &[CategoricalRecord],
    theta: f64,
    k: usize,
    policy: MissingPolicy,
    kind: GoodnessKind,
    threads: usize,
    weed: Option<(f64, usize)>,
) -> RockRun {
    let mut builder = Rock::builder()
        .theta(theta)
        .clusters(k)
        .goodness_kind(kind)
        .threads(threads);
    if let Some((multiple, min_size)) = weed {
        builder = builder.weed_outliers(multiple, min_size);
    }
    let rock = builder.build().expect("valid config");
    rock.cluster(records, &CategoricalJaccard::new(policy))
        .expect("an unlimited governor never trips and categorical Jaccard is finite")
}

/// Formats a contingency comparison the way the paper's Tables 2/3 read:
/// one row per cluster with per-class counts.
pub fn contingency_rows(
    clustering: &Clustering,
    truth: &[usize],
    class_names: &[&str],
) -> Vec<Vec<String>> {
    let pred = clustering.assignments(truth.len());
    let table = rock_eval::ContingencyTable::new(&pred, truth);
    let mut rows = Vec::new();
    for c in 0..table.num_clusters() {
        let mut row = vec![(c + 1).to_string()];
        for t in 0..class_names.len() {
            row.push(if t < table.num_classes() {
                table.count(c, t).to_string()
            } else {
                "0".to_owned()
            });
        }
        rows.push(row);
    }
    if table.outlier_row().iter().any(|&c| c > 0) {
        let mut row = vec!["outliers".to_owned()];
        for t in 0..class_names.len() {
            row.push(
                table
                    .outlier_row()
                    .get(t)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            );
        }
        rows.push(row);
    }
    rows
}

/// Number of worker threads to use by default: all cores minus one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::from_vec(vec![
            "--scale".into(),
            "0.5".into(),
            "--profiles".into(),
            "--theta".into(),
            "0.8".into(),
        ]);
        assert!(a.flag("profiles"));
        assert!(!a.flag("full"));
        assert_eq!(a.get::<f64>("scale", 1.0), 0.5);
        assert_eq!(a.get::<f64>("theta", 0.73), 0.8);
        assert_eq!(a.get::<u64>("seed", 42), 42);
    }

    #[test]
    fn contingency_rows_shape() {
        let clustering = Clustering::new(vec![vec![0, 1], vec![2]], vec![3]);
        let truth = vec![0, 0, 1, 1];
        let rows = contingency_rows(&clustering, &truth, &["A", "B"]);
        assert_eq!(rows.len(), 3); // 2 clusters + outlier row
        assert_eq!(rows[0], vec!["1", "2", "0"]);
        assert_eq!(rows[1], vec!["2", "0", "1"]);
        assert_eq!(rows[2], vec!["outliers", "0", "1"]);
    }

    #[test]
    #[should_panic(expected = "bad value")]
    fn bad_value_panics() {
        let a = Args::from_vec(vec!["--scale".into(), "abc".into()]);
        let _ = a.get::<f64>("scale", 1.0);
    }

    #[test]
    fn run_model_times_and_scores() {
        use rock_baselines::{CentroidConfig, CentroidModel};
        let vectors: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![if i < 5 { 0.0 } else { 8.0 }, (i % 2) as f64 * 0.1])
            .collect();
        let truth: Vec<Option<usize>> = (0..10).map(|i| Some(usize::from(i >= 5))).collect();
        let model = CentroidModel::new(CentroidConfig::plain(2));
        let run = run_model(&model, &vectors[..], &truth).expect("unlimited fit");
        assert_eq!(run.name, "centroid");
        assert_eq!(run.score.misclassification.misclassified, 0);
        assert_eq!(run.score.ari, 1.0);
        assert!(run.seconds >= 0.0);
        let row = model_row(&run);
        assert_eq!(row.len(), 6);
        assert_eq!(row[0], "centroid");
    }
}
