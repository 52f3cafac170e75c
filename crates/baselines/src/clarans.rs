//! CLARANS (Ng & Han, VLDB 1994): k-medoids via randomized search —
//! the partitional comparator the paper cites in §2 ("CLARANS employs a
//! randomized search to find the k best cluster medoids").
//!
//! The search walks the graph whose nodes are medoid sets and whose
//! edges are single-medoid swaps: from the current set, try up to
//! `max_neighbor` random swaps, move on the first cost improvement, and
//! declare a local optimum after `max_neighbor` failures; repeat
//! `num_local` times and keep the best optimum. Works over any
//! [`PairwiseSimilarity`] with cost `Σ (1 − sim(point, nearest medoid))`,
//! so it runs on categorical data directly (unlike k-means).

use rand::Rng;
use rock_core::cluster::Clustering;
use rock_core::similarity::PairwiseSimilarity;

/// CLARANS configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClaransConfig {
    /// Number of medoids (clusters).
    pub k: usize,
    /// Random restarts (`numlocal` in the paper; 2 is customary).
    pub num_local: usize,
    /// Failed random swaps before declaring a local optimum
    /// (`maxneighbor`).
    pub max_neighbor: usize,
}

impl ClaransConfig {
    /// The paper's customary parameters: 2 restarts, `max_neighbor` =
    /// max(250, 1.25% of k·(n−k)) — here simplified to 250.
    pub fn new(k: usize) -> Self {
        ClaransConfig {
            k,
            num_local: 2,
            max_neighbor: 250,
        }
    }
}

/// Result of a CLARANS run.
#[derive(Clone, Debug)]
pub struct ClaransResult {
    /// The partition (every point assigned to its nearest medoid).
    pub clustering: Clustering,
    /// The chosen medoids (point ids), aligned with
    /// `clustering.clusters`.
    pub medoids: Vec<u32>,
    /// Final cost `Σ (1 − sim(point, nearest medoid))`.
    pub cost: f64,
}

fn total_cost<S: PairwiseSimilarity>(sim: &S, medoids: &[u32]) -> f64 {
    let n = sim.len();
    let mut cost = 0.0;
    for p in 0..n {
        let best = medoids
            .iter()
            .map(|&m| sim.sim(p, m as usize))
            .fold(0.0f64, f64::max);
        cost += 1.0 - best;
    }
    cost
}

/// One randomized descent of the search graph: a random initial medoid
/// set, then single-medoid swaps until `max_neighbor` consecutive
/// failures declare a local optimum.
fn local_optimum<S: PairwiseSimilarity, R: Rng + ?Sized>(
    sim: &S,
    config: ClaransConfig,
    rng: &mut R,
) -> (Vec<u32>, f64) {
    let n = sim.len();
    // Random initial medoid set.
    let mut medoids: Vec<u32> = rock_core::sampling::sample_indices(n, config.k, rng)
        .into_iter()
        .map(|i| i as u32)
        .collect();
    let mut cost = total_cost(sim, &medoids);
    let mut failures = 0usize;
    // With k == n every point is a medoid and the swap graph has no
    // edges — the initial set is the (optimal) local optimum.
    while config.k < n && failures < config.max_neighbor {
        // Random neighbor in the search graph: swap one medoid for
        // one non-medoid.
        let slot = rng.random_range(0..config.k);
        let replacement = loop {
            let c = rng.random_range(0..n) as u32;
            if !medoids.contains(&c) {
                break c;
            }
        };
        let old = medoids[slot];
        medoids[slot] = replacement;
        let new_cost = total_cost(sim, &medoids);
        if new_cost + 1e-12 < cost {
            cost = new_cost;
            failures = 0;
        } else {
            medoids[slot] = old;
            failures += 1;
        }
    }
    (medoids, cost)
}

/// Runs CLARANS over an index-pairwise similarity.
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn clarans<S: PairwiseSimilarity, R: Rng + ?Sized>(
    sim: &S,
    config: ClaransConfig,
    rng: &mut R,
) -> ClaransResult {
    let n = sim.len();
    assert!(
        config.k >= 1 && config.k <= n,
        "k must be in 1..=n, got {}",
        config.k
    );
    // The first restart seeds the incumbent; later restarts replace it
    // only on a strict cost improvement.
    let (mut medoids, mut cost) = local_optimum(sim, config, rng);
    for _ in 1..config.num_local.max(1) {
        let (m, c) = local_optimum(sim, config, rng);
        if c < cost {
            medoids = m;
            cost = c;
        }
    }

    // Materialise the partition (ties to the lowest medoid index).
    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); config.k];
    for p in 0..n {
        let mut assigned = (0usize, f64::NEG_INFINITY);
        for (c, &m) in medoids.iter().enumerate() {
            let s = sim.sim(p, m as usize);
            if s > assigned.1 {
                assigned = (c, s);
            }
        }
        clusters[assigned.0].push(p as u32);
    }
    // Re-derive medoid order to match the normalised clustering order.
    let clustering = Clustering::new(clusters, Vec::new());
    let medoids_ordered = clustering
        .clusters
        .iter()
        .map(|members| {
            *medoids
                .iter()
                .find(|m| members.binary_search(m).is_ok())
                // tidy-allow(panic): the partition loop assigns every point, including each medoid, to its own cluster (self-similarity is maximal)
                .expect("each cluster contains its medoid")
        })
        .collect();
    ClaransResult {
        clustering,
        medoids: medoids_ordered,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use rock_core::points::Transaction;
    use rock_core::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    #[test]
    fn separates_two_blocks() {
        let m = SimilarityMatrix::from_fn(12, |i, j| {
            if (i < 6) == (j < 6) {
                0.9
            } else {
                0.1
            }
        });
        let mut rng = StdRng::seed_from_u64(94);
        let r = clarans(&m, ClaransConfig::new(2), &mut rng);
        assert_eq!(r.clustering.sizes(), vec![6, 6]);
        assert!(r.cost < 12.0 * 0.2);
        for cl in &r.clustering.clusters {
            let side: std::collections::HashSet<bool> =
                cl.iter().map(|&p| p < 6).collect();
            assert_eq!(side.len(), 1);
        }
    }

    #[test]
    fn medoids_belong_to_their_clusters() {
        let ts: Vec<Transaction> = (0..10)
            .map(|i| {
                if i < 5 {
                    Transaction::from([1, 2, 3 + (i % 2) as u32])
                } else {
                    Transaction::from([10, 11, 12 + (i % 2) as u32])
                }
            })
            .collect();
        let pw = PointsWith::new(&ts, Jaccard);
        let mut rng = StdRng::seed_from_u64(5);
        let r = clarans(&pw, ClaransConfig::new(2), &mut rng);
        for (cl, &m) in r.clustering.clusters.iter().zip(&r.medoids) {
            assert!(cl.binary_search(&m).is_ok());
        }
    }

    #[test]
    fn k_equals_n_zero_cost() {
        let m = SimilarityMatrix::from_fn(4, |_, _| 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let r = clarans(&m, ClaransConfig::new(4), &mut rng);
        assert!(r.cost < 1e-9, "every point is its own medoid");
    }

    #[test]
    fn restarts_never_worsen_cost() {
        let m = SimilarityMatrix::from_fn(20, |i, j| {
            if (i % 3) == (j % 3) {
                0.8
            } else {
                0.2
            }
        });
        let cost_with = |num_local: usize| {
            let mut rng = StdRng::seed_from_u64(7);
            clarans(
                &m,
                ClaransConfig {
                    k: 3,
                    num_local,
                    max_neighbor: 100,
                },
                &mut rng,
            )
            .cost
        };
        // More restarts explore at least as much (same seed stream, so
        // the first local optimum is identical).
        assert!(cost_with(3) <= cost_with(1) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n")]
    fn k_zero_panics() {
        let m = SimilarityMatrix::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = clarans(&m, ClaransConfig::new(0), &mut rng);
    }
}
