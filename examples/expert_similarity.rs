//! Clustering with a domain-expert similarity table (paper §1.2): no
//! point coordinates at all — only an n×n similarity matrix — which is
//! exactly the situation where centroid-based methods cannot be applied
//! and ROCK's link criterion still works.
//!
//! ```text
//! cargo run --release --example expert_similarity
//! ```

use rock::goodness::{ConstantF, Goodness, GoodnessKind};
use rock::algorithm::{OutlierPolicy, RockAlgorithm};
use rock::neighbors::NeighborGraph;
use rock::similarity::SimilarityMatrix;

fn main() {
    // An expert scores the pairwise similarity of 9 wines; two schools
    // (old world: 0-4, new world: 5-8) plus noisy off-diagonal scores.
    let n = 9;
    let expert = SimilarityMatrix::from_fn(n, |i, j| {
        let same_school = (i < 5) == (j < 5);
        // Deterministic "expert noise".
        let wobble = ((i * 31 + j * 17) % 10) as f64 / 100.0;
        if same_school {
            0.75 + wobble
        } else {
            0.25 + wobble
        }
    });

    let graph = NeighborGraph::build(&expert, 0.7, 1);
    // f(θ) is the expert's estimate of neighborhood density; here every
    // wine neighbors its whole school, so f ≈ 1.
    let goodness = Goodness::new(0.7, ConstantF(1.0), GoodnessKind::Normalized);
    let algo = RockAlgorithm::new(goodness, 2, OutlierPolicy::default());
    let run = algo.run(&graph);

    println!("clusters from the expert table alone:");
    for (c, members) in run.clustering.clusters.iter().enumerate() {
        println!("  school {}: wines {:?}", c + 1, members);
    }
    assert_eq!(run.clustering.num_clusters(), 2);
    assert_eq!(run.clustering.clusters[0], vec![0, 1, 2, 3, 4]);
    assert_eq!(run.clustering.clusters[1], vec![5, 6, 7, 8]);
}
