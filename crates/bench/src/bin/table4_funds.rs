//! Table 4: ROCK on the US mutual-fund time series (θ = 0.8).
//!
//! Funds are discretised to Up/Down/No daily changes (§5.1) and clustered
//! with the pair-restricted missing-value policy (§3.1.2). The paper
//! reports 16 named clusters of size > 3 (bond groups, growth groups,
//! international, precious metals, …) plus 24 interesting 2-fund clusters
//! and many outliers; the traditional algorithm could not be run at all
//! because of the missing values.
//!
//! ```text
//! cargo run --release -p bench --bin table4_funds -- \
//!     [--scale 1.0] [--theta 0.8] [--k 20] [--seed N]
//! ```

use bench::{default_threads, print_table, timed, Args};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::goodness::GoodnessKind;
use rock_core::similarity::{CategoricalJaccard, MissingPolicy};
use rock_core::Rock;
use rock_data::{generate_funds, FundSpec};

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", 1.0);
    let theta: f64 = args.get("theta", 0.8);
    let k: usize = args.get("k", 20);
    let seed: u64 = args.get("seed", 1993);

    let spec = if (scale - 1.0).abs() < 1e-9 {
        FundSpec::paper()
    } else {
        FundSpec::paper_scaled(scale)
    };
    let data = generate_funds(&spec, &mut StdRng::seed_from_u64(seed));
    println!(
        "{} funds over {} business days ({} named groups + {} pairs + {} outliers)",
        data.records.len(),
        spec.days,
        spec.groups.len(),
        spec.num_pairs,
        spec.num_outliers
    );

    let rock = Rock::builder()
        .theta(theta)
        .clusters(k)
        .goodness_kind(GoodnessKind::Normalized)
        .threads(default_threads())
        .build()
        .expect("valid config");
    let sim = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
    let (run, secs) = timed(|| rock.cluster(&data.records, &sim).expect("no budget is set"));
    println!("ROCK finished in {secs:.1}s");

    // Name each found cluster by its majority true group.
    let mut rows = Vec::new();
    let mut pairs_recovered = 0usize;
    let mut impure = 0usize;
    for (i, cluster) in run.clustering.clusters.iter().enumerate() {
        let mut counts: std::collections::HashMap<Option<usize>, usize> = Default::default();
        for &m in cluster {
            *counts.entry(data.funds[m as usize].group).or_insert(0) += 1;
        }
        let (majority_group, majority_count) = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(g, c)| (*g, *c))
            .unwrap_or((None, 0));
        let name = match majority_group {
            Some(g) => data.group_names[g].clone(),
            None => "(outlier funds)".to_owned(),
        };
        if majority_count < cluster.len() {
            impure += 1;
        }
        if (2..=3).contains(&cluster.len()) && name.starts_with("Pair") {
            pairs_recovered += 1;
            continue; // reported in aggregate, as in the paper
        }
        let tickers: Vec<&str> = cluster
            .iter()
            .take(5)
            .map(|&m| data.funds[m as usize].ticker.as_str())
            .collect();
        rows.push((
            cluster.len(),
            vec![
                format!("{}", i + 1),
                name,
                cluster.len().to_string(),
                format!("{:.2}", majority_count as f64 / cluster.len() as f64),
                format!("{} ...", tickers.join(" ")),
            ],
        ));
    }
    rows.sort_by_key(|(size, _)| std::cmp::Reverse(*size));
    let display: Vec<Vec<String>> = rows
        .iter()
        .filter(|(size, _)| *size > 3)
        .map(|(_, r)| r.clone())
        .collect();
    print_table(
        &format!("Table 4: mutual-fund clusters of size > 3 (theta = {theta})"),
        &["Cluster", "Majority group", "Funds", "Purity", "Tickers"],
        &display,
    );
    println!(
        "\n{} small clusters (size 2-3) matched generated mini-families (paper: 24 \
         interesting size-2 clusters); {} clusters impure; {} funds left as outliers.",
        pairs_recovered,
        impure,
        run.clustering.outliers.len()
    );
    println!(
        "Paper reference: 16 clusters of size > 3 covering bond/growth/international/\
         precious-metal groups; the traditional algorithm could not run due to missing values."
    );
}
