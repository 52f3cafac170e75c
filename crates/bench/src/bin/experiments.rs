//! Umbrella experiment runner: executes every table/figure binary's
//! workload at a configurable scale and prints a one-page summary —
//! the quick way to regenerate the whole evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- [--scale 0.1] [--full]
//! ```
//!
//! `--full` runs everything at the paper's sizes (several minutes).

use bench::{default_threads, print_table, rock_on_records, timed, Args};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::goodness::GoodnessKind;
use rock_core::similarity::{CategoricalJaccard, Jaccard, MissingPolicy};
use rock_core::Rock;
use rock_data::{
    generate_baskets, generate_funds, generate_mushrooms, generate_votes, Edibility, FundSpec,
    MushroomSpec, Party, SyntheticBasketSpec, VotesSpec,
};
use rock_eval::{count_misclassified, ContingencyTable};

fn main() {
    let args = Args::from_env();
    let scale: f64 = if args.flag("full") {
        1.0
    } else {
        args.get("scale", 0.1)
    };
    let seed: u64 = args.get("seed", 1999);
    let threads = default_threads();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // Table 2 — votes (always full size; it is tiny).
    {
        let data = generate_votes(&VotesSpec::paper(), &mut StdRng::seed_from_u64(seed));
        let truth: Vec<usize> = data
            .labels
            .iter()
            .map(|p| usize::from(*p == Party::Democrat))
            .collect();
        let (run, secs) = timed(|| {
            rock_on_records(
                &data.records,
                0.73,
                2,
                MissingPolicy::Ignore,
                GoodnessKind::Normalized,
                1,
                Some((3.0, 5)),
            )
        });
        let t = ContingencyTable::new(&run.clustering.assignments(truth.len()), &truth);
        rows.push(vec![
            "Table 2 (votes)".into(),
            format!("{} clusters, purity {:.3}", t.num_clusters(), t.purity()),
            "2 party clusters, ~12% crossover".into(),
            format!("{secs:.1}s"),
        ]);
    }

    // Table 3 — mushroom.
    {
        let spec = if scale >= 1.0 {
            MushroomSpec::paper()
        } else {
            MushroomSpec::paper_scaled(scale)
        };
        let data = generate_mushrooms(&spec, &mut StdRng::seed_from_u64(seed + 1));
        let truth: Vec<usize> = data
            .labels
            .iter()
            .map(|e| usize::from(*e == Edibility::Poisonous))
            .collect();
        let (run, secs) = timed(|| {
            rock_on_records(
                &data.records,
                0.8,
                20,
                MissingPolicy::Ignore,
                GoodnessKind::Normalized,
                threads,
                None,
            )
        });
        let t = ContingencyTable::new(&run.clustering.assignments(truth.len()), &truth);
        rows.push(vec![
            format!("Table 3 (mushroom ×{scale})"),
            format!(
                "{} clusters, {} pure, sizes {}..{}",
                t.num_clusters(),
                t.num_pure_clusters(),
                run.clustering.sizes().last().copied().unwrap_or(0),
                run.clustering.sizes().first().copied().unwrap_or(0)
            ),
            "21 clusters, 20 pure, sizes 8..1728".into(),
            format!("{secs:.1}s"),
        ]);
    }

    // Table 4 — funds.
    {
        let spec = if scale >= 1.0 {
            FundSpec::paper()
        } else {
            FundSpec::paper_scaled(scale.max(0.2))
        };
        let data = generate_funds(&spec, &mut StdRng::seed_from_u64(seed + 2));
        let rock = Rock::builder()
            .theta(0.8)
            .clusters(20)
            .threads(threads)
            .build()
            .expect("valid");
        let sim = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
        let (run, secs) = timed(|| rock.cluster(&data.records, &sim).expect("no budget is set"));
        let families = run
            .clustering
            .clusters
            .iter()
            .filter(|c| c.len() > 3)
            .count();
        rows.push(vec![
            format!("Table 4 (funds ×{:.2})", scale.max(0.2)),
            format!(
                "{families} family clusters (>3), {} outliers",
                run.clustering.outliers.len()
            ),
            "16 clusters of size >3 + 24 pairs".into(),
            format!("{secs:.1}s"),
        ]);
    }

    // Tables 5/6 — synthetic + misclassification at one sample size.
    {
        let spec = if scale >= 1.0 {
            SyntheticBasketSpec::paper()
        } else {
            SyntheticBasketSpec::paper_scaled(scale)
        };
        let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(seed + 3));
        let sample = ((3000.0 * scale) as usize).max(200);
        let rock = Rock::builder()
            .theta(0.5)
            .clusters(spec.num_clusters())
            .sample_size(sample)
            .labeling_fraction(0.3)
            .weed_outliers(3.0, sample / 100)
            .threads(threads)
            .seed(seed)
            .build()
            .expect("valid");
        let (result, secs) =
            timed(|| rock.run(&data.transactions, &Jaccard).expect("no budget is set").0);
        let m = count_misclassified(&result.labeling.assignments, &data.labels);
        rows.push(vec![
            format!("Table 6 (synthetic ×{scale}, sample {sample})"),
            format!("{} of {} misclassified", m.misclassified, m.total),
            "0 at sample 3000, theta 0.5".into(),
            format!("{secs:.1}s"),
        ]);
    }

    print_table(
        "Experiment summary (see EXPERIMENTS.md for full-scale numbers)",
        &["Experiment", "Measured", "Paper reference", "Time"],
        &rows,
    );
}
