//! Partitional clustering: Lloyd's k-means with k-means++ seeding (§1.1).
//!
//! The paper's discussion of partitional algorithms centres on the
//! criterion function `E = Σᵢ Σ_{x∈Cᵢ} d(x, mᵢ)` — minimising point-to-
//! centroid distance. This module implements that comparator and exposes
//! `E` so the bench suite can show the §1.1 failure mode (splitting large
//! categorical clusters lowers `E`).

use crate::vectorize::sq_euclidean;
use rand::Rng;
use rock_core::cluster::Clustering;

/// Configuration for a k-means run.
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when no assignment changes.
    pub tol_changes: usize,
}

impl KMeansConfig {
    /// `k` clusters, up to 100 iterations, stop on zero changes.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 100,
            tol_changes: 0,
        }
    }
}

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// The partition.
    pub clustering: Clustering,
    /// Final centroids, aligned with `clustering.clusters`.
    pub centroids: Vec<Vec<f64>>,
    /// Final value of the criterion function `E` (sum of Euclidean
    /// distances of points to their centroid, §1.1).
    pub criterion: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Runs k-means++ seeding followed by Lloyd iterations.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `k > points.len()`.
pub(crate) fn kmeans<R: Rng + ?Sized>(
    points: &[Vec<f64>],
    config: KMeansConfig,
    rng: &mut R,
) -> KMeansResult {
    let n = points.len();
    assert!(n > 0, "cannot cluster zero points");
    assert!(
        config.k >= 1 && config.k <= n,
        "k must be in 1..=n, got {}",
        config.k
    );
    let dim = points[0].len();

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(config.k);
    centroids.push(points[rng.random_range(0..n)].clone());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| sq_euclidean(p, &centroids[0]))
        .collect();
    while centroids.len() < config.k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with chosen centroids; pick arbitrary.
            rng.random_range(0..n)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let next_centroid = points[next].clone();
        for (i, p) in points.iter().enumerate() {
            let d = sq_euclidean(p, &next_centroid);
            if d < d2[i] {
                d2[i] = d;
            }
        }
        centroids.push(next_centroid);
    }

    // Lloyd iterations.
    let mut assign: Vec<usize> = vec![0; n];
    let mut iterations = 0;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let mut changes = 0usize;
        for (i, p) in points.iter().enumerate() {
            let mut best = (f64::INFINITY, 0usize);
            for (c, cent) in centroids.iter().enumerate() {
                let d = sq_euclidean(p, cent);
                if d < best.0 {
                    best = (d, c);
                }
            }
            if assign[i] != best.1 {
                assign[i] = best.1;
                changes += 1;
            }
        }
        // Recompute centroids; empty clusters keep their old centroid.
        let mut sums = vec![vec![0.0; dim]; config.k];
        let mut counts = vec![0usize; config.k];
        for (i, p) in points.iter().enumerate() {
            counts[assign[i]] += 1;
            for (s, x) in sums[assign[i]].iter_mut().zip(p) {
                *s += *x;
            }
        }
        for c in 0..config.k {
            if counts[c] > 0 {
                for (cent, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *cent = *s / counts[c] as f64;
                }
            }
        }
        if changes <= config.tol_changes {
            break;
        }
    }

    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); config.k];
    for (i, &c) in assign.iter().enumerate() {
        clusters[c].push(i as u32);
    }
    let criterion = criterion_e(points, &assign, &centroids);
    // Re-derive centroids in the normalised cluster order.
    let clustering = Clustering::new(clusters, Vec::new());
    let centroids_ordered = clustering
        .clusters
        .iter()
        .map(|members| {
            let mut sum = vec![0.0; dim];
            for &p in members {
                for (s, x) in sum.iter_mut().zip(&points[p as usize]) {
                    *s += *x;
                }
            }
            sum.iter_mut().for_each(|s| *s /= members.len() as f64);
            sum
        })
        .collect();
    KMeansResult {
        clustering,
        centroids: centroids_ordered,
        criterion,
        iterations,
    }
}

/// The §1.1 criterion function `E`: the sum over all points of the
/// Euclidean distance to their cluster's centroid.
fn criterion_e(points: &[Vec<f64>], assign: &[usize], centroids: &[Vec<f64>]) -> f64 {
    points
        .iter()
        .zip(assign)
        .map(|(p, &c)| sq_euclidean(p, &centroids[c]).sqrt())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.01;
            pts.push(vec![0.0 + jitter, 0.0]);
            pts.push(vec![10.0 + jitter, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_blobs() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(1);
        let r = kmeans(&pts, KMeansConfig::new(2), &mut rng);
        assert_eq!(r.clustering.sizes(), vec![20, 20]);
        for cl in &r.clustering.clusters {
            let even: std::collections::HashSet<bool> =
                cl.iter().map(|&p| p % 2 == 0).collect();
            assert_eq!(even.len(), 1);
        }
    }

    #[test]
    fn criterion_decreases_with_better_k() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(2);
        let r1 = kmeans(&pts, KMeansConfig::new(1), &mut rng);
        let r2 = kmeans(&pts, KMeansConfig::new(2), &mut rng);
        assert!(r2.criterion < r1.criterion);
    }

    #[test]
    fn k_equals_n_gives_zero_criterion() {
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 100.0]).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let r = kmeans(&pts, KMeansConfig::new(5), &mut rng);
        assert!(r.criterion < 1e-9);
    }

    #[test]
    fn converges_and_reports_iterations() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(4);
        let r = kmeans(&pts, KMeansConfig::new(2), &mut rng);
        assert!(r.iterations <= 100);
        assert!(r.iterations >= 1);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n")]
    fn k_zero_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = kmeans(&[vec![0.0]], KMeansConfig::new(0), &mut rng);
    }
}
