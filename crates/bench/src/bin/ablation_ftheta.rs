//! Ablation: sensitivity of clustering quality to the neighbor-exponent
//! estimate f(θ) (§3.3).
//!
//! The paper claims "even an inaccurate but reasonable estimate for f()
//! can work well in practice". This binary quantifies that: for each
//! data set, sweep a constant f and report adjusted Rand index against
//! ground truth, alongside the market-basket default `(1−θ)/(1+θ)`.
//!
//! ```text
//! cargo run --release -p bench --bin ablation_ftheta -- [--seed N] [--scale 0.1]
//! ```

use bench::{print_table, Args};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::goodness::{BasketF, FTheta};
use rock_core::similarity::{CategoricalJaccard, Jaccard, PairwiseSimilarity, PointsWith};
use rock_core::{
    ConstantF, Goodness, GoodnessKind, NeighborGraph, OutlierPolicy, RockAlgorithm,
};
use rock_data::{generate_baskets, generate_mushrooms, MushroomSpec, SyntheticBasketSpec};
use rock_eval::adjusted_rand_index;

fn ari_with_f<PS: PairwiseSimilarity + Sync>(
    sim: &PS,
    theta: f64,
    k: usize,
    f: f64,
    truth: &[usize],
) -> f64 {
    let graph = NeighborGraph::build(sim, theta, 1);
    let goodness = Goodness::new(theta, ConstantF(f), GoodnessKind::Normalized);
    let run = RockAlgorithm::new(goodness, k, OutlierPolicy::default()).run(&graph);
    // Outliers become one extra dense label (the agreement indices build
    // dense count matrices).
    let outlier_label = run.clustering.num_clusters();
    let pred: Vec<usize> = run
        .clustering
        .assignments(truth.len())
        .iter()
        .map(|a| a.map_or(outlier_label, |c| c))
        .collect();
    adjusted_rand_index(&pred, truth)
}

fn main() {
    let args = Args::from_env();
    let seed: u64 = args.get("seed", 33);
    let scale: f64 = args.get("scale", 0.05);
    let fs = [0.2, BasketF.f(0.5), 0.5, 0.7, 1.0];

    // Synthetic baskets at θ = 0.5 against true cluster labels.
    let baskets = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(scale),
        &mut StdRng::seed_from_u64(seed),
    );
    let num_true = SyntheticBasketSpec::paper_scaled(scale).num_clusters();
    let basket_truth: Vec<usize> = baskets
        .labels
        .iter()
        .map(|l| l.map_or(num_true, |c| c))
        .collect();
    let pw = PointsWith::new(&baskets.transactions, Jaccard);

    // Mushrooms at θ = 0.8 against species labels.
    let mushrooms = generate_mushrooms(
        &MushroomSpec::paper_scaled(scale.max(0.05)),
        &mut StdRng::seed_from_u64(seed + 1),
    );
    let sim = CategoricalJaccard::default();
    let mw = PointsWith::new(&mushrooms.records, &sim);

    let mut rows = Vec::new();
    for &f in &fs {
        let tag = if (f - BasketF.f(0.5)).abs() < 1e-9 {
            format!("{f:.3} (basket default at theta=0.5)")
        } else {
            format!("{f:.3}")
        };
        rows.push(vec![
            tag,
            format!("{:.3}", ari_with_f(&pw, 0.5, 10, f, &basket_truth)),
            format!("{:.3}", ari_with_f(&mw, 0.8, 20, f, &mushrooms.species)),
        ]);
    }
    print_table(
        "f(theta) sensitivity (adjusted Rand index vs ground truth)",
        &["f", "baskets (theta=0.5)", "mushroom species (theta=0.8)"],
        &rows,
    );
    println!(
        "\nPaper §3.3: errors in f(theta) affect all clusters similarly, so a \
         reasonable estimate suffices — the ARI should be flat across most of the \
         sweep, degrading only at extreme under-estimates (see also the Fig.-1 \
         sensitivity test, where the toy data needs f near 1)."
    );
}
