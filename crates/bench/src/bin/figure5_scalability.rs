//! Figure 5: ROCK execution time vs random-sample size, for
//! θ ∈ {0.5, 0.6, 0.7, 0.8} (§5.4).
//!
//! As in the paper, the timing covers neighbor computation, link
//! computation and the merge loop on the sample — the final labeling
//! phase is excluded. The expected shape: roughly quadratic growth in the
//! sample size, and faster clustering at higher θ (fewer neighbors →
//! cheaper links).
//!
//! ```text
//! cargo run --release -p bench --bin figure5_scalability -- \
//!     [--sizes 1000,2000,3000,4000,5000] [--repeats 1] [--seed N] [--csv]
//! ```

use bench::{print_table, timed, Args};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::goodness::{BasketF, FTheta, Goodness, GoodnessKind};
use rock_core::algorithm::{OutlierPolicy, RockAlgorithm};
use rock_core::neighbors::NeighborGraph;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};

fn main() {
    let args = Args::from_env();
    let seed: u64 = args.get("seed", 114586);
    let sizes_arg: String = args.get("sizes", "1000,2000,3000,4000,5000".to_owned());
    let repeats: usize = args.get("repeats", 1);
    let sizes: Vec<usize> = sizes_arg
        .split(',')
        .map(|s| s.trim().parse().expect("size list"))
        .collect();
    let thetas = [0.5, 0.6, 0.7, 0.8];
    let k = 10;

    // One generated pool large enough for the biggest sample.
    let max_size = *sizes.iter().max().expect("at least one size");
    let scale = (max_size as f64 / 100_000.0).clamp(0.05, 1.0);
    let spec = SyntheticBasketSpec::paper_scaled(scale);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(seed));
    assert!(
        data.transactions.len() >= max_size,
        "generated pool too small"
    );

    let mut rows = Vec::new();
    let mut csv = String::from("sample_size,theta,seconds\n");
    for &n in &sizes {
        let mut row = vec![n.to_string()];
        for &theta in &thetas {
            // Fresh random sample per cell, as in the paper's experiment.
            let mut rng = StdRng::seed_from_u64(seed ^ (n as u64) ^ (theta * 100.0) as u64);
            let idx = rock_core::sampling::sample_indices(data.transactions.len(), n, &mut rng);
            let sample: Vec<_> = idx.iter().map(|&i| data.transactions[i].clone()).collect();
            let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
            let algo = RockAlgorithm::new(goodness, k, OutlierPolicy::default());
            let mut best = f64::INFINITY;
            for _ in 0..repeats.max(1) {
                let (_, secs) = timed(|| {
                    let graph = NeighborGraph::build(&PointsWith::new(&sample, Jaccard), theta, 1);
                    algo.run(&graph)
                });
                best = best.min(secs);
            }
            let _ = BasketF.f(theta); // (documented: f enters only the goodness)
            row.push(format!("{best:.2}"));
            csv.push_str(&format!("{n},{theta},{best:.4}\n"));
        }
        rows.push(row);
    }
    print_table(
        "Figure 5: ROCK clustering time on the sample (seconds, labeling excluded)",
        &["Sample Size", "theta=0.5", "theta=0.6", "theta=0.7", "theta=0.8"],
        &rows,
    );
    if args.flag("csv") {
        println!("\n{csv}");
    }
    println!(
        "Shape to reproduce (paper Fig. 5): roughly quadratic growth with sample size; \
         larger theta runs faster because each transaction has fewer neighbors."
    );
}
