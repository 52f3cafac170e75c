//! The link-based criterion function `E_l` (§3.3).
//!
//! ```text
//!        k           Σ_{p_q, p_r ∈ Cᵢ} link(p_q, p_r)
//! E_l = Σ    nᵢ  ·  ─────────────────────────────────
//!       i=1                  nᵢ^(1+2f(θ))
//! ```
//!
//! The best clustering is the one maximising `E_l`: it rewards link mass
//! inside clusters but divides by each cluster's *expected* link mass so
//! that lumping everything into one cluster is not optimal. The clustering
//! loop greedily chases this function via the goodness measure; `E_l`
//! itself is exposed for evaluation, tests and the ablation benches.

use crate::goodness::Goodness;
use crate::links_matrix::LinkMatrix;

/// Sum of `link(p_q, p_r)` over unordered point pairs inside `cluster`.
///
/// `cluster` is a set of point ids valid for `links`.
fn intra_cluster_links(links: &LinkMatrix, cluster: &[u32]) -> u64 {
    let mut total = 0u64;
    for (a, &i) in cluster.iter().enumerate() {
        for &j in &cluster[a + 1..] {
            total += u64::from(links.count(i as usize, j as usize));
        }
    }
    total
}

/// Evaluates the criterion function `E_l` for a clustering.
///
/// Empty clusters contribute nothing. The goodness measure supplies the
/// exponent `1 + 2f(θ)`.
pub fn criterion_value(links: &LinkMatrix, clusters: &[Vec<u32>], goodness: &Goodness) -> f64 {
    clusters
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| {
            let ni = c.len() as f64;
            let intra = intra_cluster_links(links, c) as f64;
            ni * intra / goodness.expected_within(c.len())
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodness::{BasketF, GoodnessKind};
    use crate::neighbors::NeighborGraph;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith};

    /// Two 4-point cliques with no cross-neighbor edges.
    fn two_cliques() -> (Vec<Transaction>, LinkMatrix) {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([10, 12, 13]),
            Transaction::from([11, 12, 13]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let links = LinkMatrix::compute_sparse(&g, 1);
        (ts, links)
    }

    #[test]
    fn intra_links_of_a_clique() {
        let (_, links) = two_cliques();
        // Within a 4-clique every pair has 2 common neighbors.
        assert_eq!(intra_cluster_links(&links, &[0, 1, 2, 3]), 12);
        assert_eq!(intra_cluster_links(&links, &[4, 5, 6, 7]), 12);
    }

    #[test]
    fn correct_clustering_maximises_criterion() {
        let (_, links) = two_cliques();
        let good = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        let correct = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let lumped = vec![vec![0, 1, 2, 3, 4, 5, 6, 7]];
        let split = vec![
            vec![0, 1],
            vec![2, 3],
            vec![4, 5],
            vec![6, 7],
        ];
        let mixed = vec![vec![0, 1, 4, 5], vec![2, 3, 6, 7]];
        let e_correct = criterion_value(&links, &correct, &good);
        for (name, alt) in [("lumped", lumped), ("split", split), ("mixed", mixed)] {
            let e = criterion_value(&links, &alt, &good);
            assert!(
                e_correct > e,
                "{name}: expected {e_correct} > {e}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_clusters() {
        let (_, links) = two_cliques();
        let good = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        assert_eq!(criterion_value(&links, &[], &good), 0.0);
        // Singletons have no intra pairs.
        let singletons: Vec<Vec<u32>> = (0..8).map(|i| vec![i]).collect();
        assert_eq!(criterion_value(&links, &singletons, &good), 0.0);
    }
}
