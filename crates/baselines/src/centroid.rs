//! Centroid-based agglomerative hierarchical clustering — the paper's
//! "traditional algorithm" comparator (§1.1, §5).
//!
//! Each point starts as its own cluster; the pair of clusters whose
//! centroids are closest in Euclidean distance is merged until `k`
//! clusters remain. Outlier handling follows §5 verbatim: "eliminating
//! clusters with only one point when the number of clusters reduces to
//! 1/3 of the original number".
//!
//! The implementation uses the classic nearest-neighbor-array scheme:
//! every live cluster caches its nearest partner; a merge invalidates only
//! the entries that referenced the merged clusters. O(n²·d) typical,
//! O(n³·d) adversarial worst case — ample for the paper's data sizes
//! (n ≤ 8124) and honest about what 1999-era "traditional hierarchical
//! clustering" did.

use rock_core::cluster::Clustering;

/// Configuration of the traditional comparator.
#[derive(Clone, Copy, Debug)]
pub struct CentroidConfig {
    /// Desired number of clusters.
    pub k: usize,
    /// §5's outlier rule: when the cluster count first falls to
    /// `n / outlier_divisor`, singleton clusters are discarded.
    /// `None` disables outlier elimination.
    pub outlier_divisor: Option<usize>,
}

impl CentroidConfig {
    /// The paper's setup: target `k`, singletons weeded at n/3.
    pub fn paper(k: usize) -> Self {
        CentroidConfig {
            k,
            outlier_divisor: Some(3),
        }
    }

    /// No outlier handling.
    pub fn plain(k: usize) -> Self {
        CentroidConfig {
            k,
            outlier_divisor: None,
        }
    }
}

/// One cluster's accumulated state. Slots are never vacated: a merged or
/// weeded cluster's `members` are moved out with `mem::take` and its
/// index leaves `live`, so every index reachable through `live` is
/// always valid — no `Option` unwrapping anywhere on the hot path.
struct ClusterSlot {
    /// Sum of member vectors (centroid = sum / size).
    sum: Vec<f64>,
    members: Vec<u32>,
}

/// Squared distance between the centroids of two slots, computed from the
/// member sums without materialising the centroids.
fn centroid_sq_dist(a: &ClusterSlot, b: &ClusterSlot) -> f64 {
    let (na, nb) = (a.members.len() as f64, b.members.len() as f64);
    a.sum
        .iter()
        .zip(&b.sum)
        .map(|(x, y)| {
            let d = x / na - y / nb;
            d * d
        })
        .sum()
}

/// Runs centroid-based agglomerative clustering over dense vectors.
///
/// Returns the clustering (point ids index `points`); outliers are the
/// singletons eliminated by the §5 rule, if enabled.
///
/// # Panics
/// Panics if `points` is empty, dimensions are inconsistent, or
/// `config.k == 0`.
pub fn centroid_hierarchical(points: &[Vec<f64>], config: CentroidConfig) -> Clustering {
    assert!(config.k >= 1, "need at least one target cluster");
    assert!(!points.is_empty(), "cannot cluster zero points");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "inconsistent dimensions"
    );
    let n = points.len();

    let mut slots: Vec<ClusterSlot> = points
        .iter()
        .enumerate()
        .map(|(i, p)| ClusterSlot {
            sum: p.clone(),
            members: vec![i as u32],
        })
        .collect();
    let mut live: Vec<usize> = (0..n).collect();
    // nearest[i] = (best squared centroid distance, partner) over live
    // clusters, or None when stale.
    let mut nearest: Vec<Option<(f64, usize)>> = vec![None; n];
    let weed_threshold = config.outlier_divisor.map(|d| (n / d).max(config.k));
    let mut weeded = config.outlier_divisor.is_none();
    let mut outliers: Vec<u32> = Vec::new();

    let recompute = |slots: &[ClusterSlot], live: &[usize], i: usize| {
        let si = &slots[i];
        let mut best: Option<(f64, usize)> = None;
        for &j in live {
            if j == i {
                continue;
            }
            let d = centroid_sq_dist(si, &slots[j]);
            let better = match best {
                None => true,
                // Tie-break on index for determinism.
                Some((bd, bj)) => d < bd || (d == bd && j < bj),
            };
            if better {
                best = Some((d, j));
            }
        }
        best
    };

    while live.len() > config.k {
        // §5 outlier rule, applied once.
        if let (Some(at), false) = (weed_threshold, weeded) {
            if live.len() <= at {
                let (kept, dropped): (Vec<usize>, Vec<usize>) =
                    live.iter().partition(|&&i| slots[i].members.len() > 1);
                // Keep at least k clusters even if weeding is aggressive.
                if kept.len() >= config.k {
                    for i in dropped {
                        outliers.extend(std::mem::take(&mut slots[i].members));
                    }
                    live = kept;
                    for entry in nearest.iter_mut() {
                        *entry = None; // partners may be gone
                    }
                }
                weeded = true;
                continue;
            }
        }

        // Find the globally closest pair via the nearest-partner cache.
        let mut best: Option<(f64, usize, usize)> = None;
        for idx in 0..live.len() {
            let i = live[idx];
            if nearest[i].is_none() {
                nearest[i] = recompute(&slots, &live, i);
            }
            if let Some((d, j)) = nearest[i] {
                let better = match best {
                    None => true,
                    Some((bd, bi, bj)) => {
                        d < bd || (d == bd && (i.min(j), i.max(j)) < (bi.min(bj), bi.max(bj)))
                    }
                };
                if better {
                    best = Some((d, i, j));
                }
            }
        }
        let Some((_, u, v)) = best else {
            break; // fewer than 2 live clusters
        };

        // Merge v into u: move v's members out, fold its sum into u.
        let sv_members = std::mem::take(&mut slots[v].members);
        let sv_sum = std::mem::take(&mut slots[v].sum);
        let su = &mut slots[u];
        for (x, y) in su.sum.iter_mut().zip(&sv_sum) {
            *x += *y;
        }
        su.members.extend(sv_members);
        live.retain(|&i| i != v);
        nearest[u] = None;
        nearest[v] = None;
        // Fix up the caches. Centroid linkage is not *reducible*: the
        // merged centroid is a convex combination of the old ones and can
        // land closer to a bystander cluster than that cluster's cached
        // nearest partner. So besides invalidating entries that pointed
        // at u or v, compare every live cluster against the new centroid
        // and adopt it when it wins.
        for &i in &live {
            if i == u {
                continue;
            }
            match nearest[i] {
                Some((_, j)) if j == u || j == v => nearest[i] = None,
                Some((d, _)) => {
                    let dw = centroid_sq_dist(&slots[i], &slots[u]);
                    if dw < d {
                        nearest[i] = Some((dw, u));
                    }
                }
                None => {}
            }
        }
    }

    let clusters: Vec<Vec<u32>> = live
        .into_iter()
        .map(|i| std::mem::take(&mut slots[i].members))
        .collect();
    Clustering::new(clusters, outliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectorize::transactions_to_vectors;
    use rock_core::points::Transaction;

    #[test]
    fn example_1_1_wrong_merge() {
        // §1.1 Example 1.1: the centroid algorithm merges {1,4} and {6}
        // (points 2 and 3) even though they share no item — the failure
        // mode motivating ROCK. Reproduce it exactly.
        let ts = vec![
            Transaction::from([0, 1, 2, 4]),
            Transaction::from([1, 2, 3, 4]),
            Transaction::from([0, 3]),
            Transaction::from([5]),
        ];
        let vs = transactions_to_vectors(&ts, 6);
        let c = centroid_hierarchical(&vs, CentroidConfig::plain(2));
        // After merging 0 and 1 (distance √2), points 2 and 3 merge
        // (distance √3 < 3.5 and 4.5 to the merged centroid).
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.clusters, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn separates_well_separated_gaussians() {
        // Two tight groups in 2-D.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        let c = centroid_hierarchical(&pts, CentroidConfig::plain(2));
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.sizes(), vec![10, 10]);
        for cl in &c.clusters {
            let even: std::collections::HashSet<bool> =
                cl.iter().map(|&p| p % 2 == 0).collect();
            assert_eq!(even.len(), 1, "groups must not mix");
        }
    }

    #[test]
    fn outlier_rule_drops_singletons() {
        // 9 points: two groups of 4 plus one far-away point. With the
        // paper's n/3 rule, when 3 clusters remain the singleton is
        // eliminated.
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push(vec![0.0, i as f64 * 0.1]);
        }
        for i in 0..4 {
            pts.push(vec![100.0, i as f64 * 0.1]);
        }
        pts.push(vec![5000.0, 5000.0]);
        let c = centroid_hierarchical(&pts, CentroidConfig::paper(2));
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.outliers, vec![8]);
    }

    #[test]
    fn k_equals_n_is_identity() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let c = centroid_hierarchical(&pts, CentroidConfig::plain(3));
        assert_eq!(c.num_clusters(), 3);
        assert!(c.outliers.is_empty());
    }

    #[test]
    fn merged_centroid_adopted_as_new_nearest() {
        // Non-reducibility regression: u = (0,0), v = (2,0) merge to
        // centroid (1,0); x = (1,5) was nearest to j = (1, 5.05)-ish at
        // distance 5.02 but the merged centroid is at exactly 5. The
        // final clustering must reflect the true closest pairs: x joins
        // the merged cluster before j does anything wrong.
        let pts = vec![
            vec![0.0, 0.0],   // u
            vec![2.0, 0.0],   // v
            vec![1.0, 5.0],   // x
            vec![1.0, 10.1],  // j: x's initial nearest is NOT j (5.1)… keep j far
        ];
        let c = centroid_hierarchical(&pts, CentroidConfig::plain(2));
        // u and v merge first (distance 2); then x (distance 5 to the
        // merged centroid) joins them rather than pairing with far-away j.
        assert_eq!(c.clusters, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn deterministic() {
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64, (i % 3) as f64])
            .collect();
        let a = centroid_hierarchical(&pts, CentroidConfig::plain(4));
        let b = centroid_hierarchical(&pts, CentroidConfig::plain(4));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn empty_input_panics() {
        let _ = centroid_hierarchical(&[], CentroidConfig::plain(1));
    }
}
