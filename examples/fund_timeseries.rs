//! Clustering time series as categorical data (paper §5.1/§5.2): mutual
//! funds are discretised to Up/Down/No daily price changes, missing
//! values (young funds) are handled with the pair-restricted similarity,
//! and ROCK recovers the fund families.
//!
//! ```text
//! cargo run --release --example fund_timeseries
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rock::rock::Rock;
use rock::similarity::{CategoricalJaccard, MissingPolicy};
use rock_data::{generate_funds, FundSpec};

fn main() {
    let spec = FundSpec::paper_scaled(0.4);
    let data = generate_funds(&spec, &mut StdRng::seed_from_u64(1993));
    let young = data
        .records
        .iter()
        .filter(|r| r.num_present() < r.arity())
        .count();
    println!(
        "{} funds over {} business days; {} young funds have missing prefixes",
        data.records.len(),
        spec.days,
        young
    );

    // The time-series missing-value policy (§3.1.2): only days present in
    // *both* records count.
    let sim = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
    let rock = Rock::builder()
        .theta(0.8)
        .clusters(20)
        .build()
        .expect("valid configuration");
    let run = rock.cluster(&data.records, &sim)
        .expect("categorical Jaccard is finite; no budget is set");

    let mut described = 0;
    for cluster in &run.clustering.clusters {
        if cluster.len() < 4 {
            continue;
        }
        let mut counts: std::collections::HashMap<Option<usize>, usize> = Default::default();
        for &m in cluster {
            *counts.entry(data.funds[m as usize].group).or_insert(0) += 1;
        }
        let (group, n) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        let name = group.map_or("unrelated funds", |g| data.group_names[g].as_str());
        println!(
            "cluster of {:3} funds — {name} ({:.0}% pure)",
            cluster.len(),
            100.0 * *n as f64 / cluster.len() as f64
        );
        described += 1;
    }
    println!(
        "{described} family clusters; {} funds are outliers (idiosyncratic portfolios)",
        run.clustering.outliers.len()
    );
    assert!(described >= 5, "the major fund families should be found");
}
