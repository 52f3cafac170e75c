//! Choosing the number of clusters after the fact: run ROCK once down to
//! a small k, capture the dendrogram, and inspect any intermediate cut —
//! no re-clustering needed.
//!
//! ```text
//! cargo run --release --example choose_k
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rock::algorithm::{OutlierPolicy, RockAlgorithm};
use rock::goodness::{BasketF, Goodness, GoodnessKind};
use rock::neighbors::NeighborGraph;
use rock::similarity::{Jaccard, PointsWith};
use rock::Dendrogram;
use rock_data::{generate_baskets, SyntheticBasketSpec};
use rock_eval::adjusted_rand_index;

fn main() {
    // 10 true clusters; pretend we do not know that.
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(21),
    );
    let graph = NeighborGraph::build(&PointsWith::new(&data.transactions, Jaccard), 0.5, 1);
    let goodness = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);

    // One run to k = 2 captures the whole hierarchy above it.
    let run = RockAlgorithm::new(goodness, 2, OutlierPolicy::default()).run(&graph);
    let dendro = Dendrogram::from_run(&run).expect("no weeding → dendrogram");
    println!(
        "one clustering run: {} leaves, merges recorded down to {} clusters",
        dendro.num_leaves(),
        dendro.min_clusters()
    );

    // Score a few cuts against ground truth (in real use: against E_l or
    // domain judgement).
    let truth: Vec<usize> = data.labels.iter().map(|l| l.map_or(10, |c| c)).collect();
    let mut best = (0usize, f64::MIN);
    for k in [2usize, 5, 8, 10, 12, 20] {
        if k < dendro.min_clusters() || k > dendro.num_leaves() {
            continue;
        }
        let cut = dendro.cut(k);
        let pred: Vec<usize> = cut
            .assignments(truth.len())
            .iter()
            .map(|a| a.map_or(11, |c| c))
            .collect();
        let ari = adjusted_rand_index(&pred, &truth);
        println!("cut at k = {k:2}: ARI {ari:.3}");
        if ari > best.1 {
            best = (k, ari);
        }
    }
    println!("best cut: k = {} (true cluster count is 10)", best.0);
    assert_eq!(best.0, 10);
}
