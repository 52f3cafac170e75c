//! The full Fig.-2 pipeline on a large synthetic market-basket database:
//! draw a random sample, cluster it with links, label the remaining
//! transactions, and score against ground truth.
//!
//! ```text
//! cargo run --release --example market_basket
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock_data::{generate_baskets, SyntheticBasketSpec};
use rock_eval::count_misclassified;

fn main() {
    // ~11.5k transactions in 10 clusters + 5% outliers (a 10% scale of
    // the paper's 114,586-transaction data set; see table5_synthetic).
    let spec = SyntheticBasketSpec::paper_scaled(0.1);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(2024));
    println!(
        "database: {} transactions over {} items, {} clusters + outliers",
        data.transactions.len(),
        data.num_items,
        spec.num_clusters()
    );

    // Cluster a 1,000-transaction sample and label the rest (Fig. 2).
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(spec.num_clusters())
        .sample_size(1000)
        .labeling_fraction(0.3)
        .weed_outliers(3.0, 10)
        .seed(7)
        .build()
        .expect("valid configuration");
    let (result, _report) = rock
        .run(&data.transactions, &Jaccard)
        .expect("Jaccard is finite; no budget is set");

    println!(
        "sample of {} clustered into {} clusters; {} sample points weeded as outliers",
        result.sample_indices.len(),
        result.sample_run.clustering.num_clusters(),
        result.sample_run.clustering.outliers.len()
    );

    let m = count_misclassified(&result.labeling.assignments, &data.labels);
    println!(
        "labeling phase assigned all {} transactions: {} misclassified ({:.2}%)",
        m.total,
        m.misclassified,
        100.0 * m.rate()
    );
    assert!(m.rate() < 0.05, "pipeline should be near-perfect here");
}
