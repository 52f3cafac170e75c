//! Similarity-based hierarchical clustering: MST/single-link, group
//! average, and complete linkage (§1.1).
//!
//! The paper discusses these as the options available when the similarity
//! measure is non-metric (e.g. the Jaccard coefficient): "we have to use
//! either the minimum spanning tree (MST) hierarchical clustering
//! algorithm or hierarchical clustering with group average". It then shows
//! both fail on overlapping categorical clusters (Example 1.2) — MST is
//! fragile, group average splits large clusters. They are implemented
//! here as comparators.
//!
//! All three linkages admit Lance–Williams-style updates on a similarity
//! matrix, so one engine serves them: O(n²) memory, O(n² · n) = O(n³)
//! worst-case time with the nearest-partner cache (O(n²) typical) —
//! adequate for sample-sized inputs.

use rock_core::cluster::Clustering;
use rock_core::similarity::PairwiseSimilarity;

/// How inter-cluster similarity is derived when clusters merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Linkage {
    /// `sim(w, x) = max(sim(u, x), sim(v, x))` — merges the pair of
    /// clusters containing the most similar pair of points (the MST
    /// algorithm; known to be very sensitive to outliers, §1.1).
    Single,
    /// `sim(w, x) = min(sim(u, x), sim(v, x))` — merges the pair whose
    /// least-similar points are most similar.
    Complete,
    /// Weighted average: `sim(w, x) = (n_u·sim(u,x) + n_v·sim(v,x)) /
    /// (n_u + n_v)` — the group-average algorithm (UPGMA), which the paper
    /// notes "has a tendency to split large clusters".
    Average,
}

/// Configuration of a linkage run.
#[derive(Clone, Copy, Debug)]
pub struct LinkageConfig {
    /// Desired number of clusters.
    pub k: usize,
    /// The linkage criterion.
    pub linkage: Linkage,
    /// Stop merging when the best inter-cluster similarity falls below
    /// this value (clusters left apart stay apart). `0.0` never stops
    /// early.
    pub min_similarity: f64,
}

impl LinkageConfig {
    /// `k` clusters with the given linkage, no early stop.
    pub fn new(k: usize, linkage: Linkage) -> Self {
        LinkageConfig {
            k,
            linkage,
            min_similarity: 0.0,
        }
    }
}

/// Runs agglomerative clustering under the configured linkage over a
/// pairwise similarity.
///
/// # Panics
/// Panics if the point set is empty or `config.k == 0`.
pub fn similarity_linkage<S: PairwiseSimilarity>(sim: &S, config: LinkageConfig) -> Clustering {
    assert!(config.k >= 1, "need at least one target cluster");
    let n = sim.len();
    assert!(n > 0, "cannot cluster zero points");

    // Full similarity matrix (lower triangle), mutated in place by the
    // Lance–Williams updates.
    let idx = |i: usize, j: usize| -> usize {
        let (i, j) = if i > j { (i, j) } else { (j, i) };
        i * (i - 1) / 2 + j
    };
    let mut s: Vec<f64> = vec![0.0; n * n.saturating_sub(1) / 2];
    for i in 1..n {
        for j in 0..i {
            s[idx(i, j)] = sim.sim(i, j);
        }
    }

    // Member lists are never vacated: a merged cluster's members move
    // out with `mem::take` as its index leaves `live`, so every index
    // reachable through `live` is always valid.
    let mut members: Vec<Vec<u32>> = (0..n).map(|i| vec![i as u32]).collect();
    let mut live: Vec<usize> = (0..n).collect();
    // nearest-partner cache: (best similarity, partner) per live cluster.
    let mut nearest: Vec<Option<(f64, usize)>> = vec![None; n];

    while live.len() > config.k {
        let mut best: Option<(f64, usize, usize)> = None;
        for pos in 0..live.len() {
            let i = live[pos];
            if nearest[i].is_none() {
                let mut local: Option<(f64, usize)> = None;
                for &j in &live {
                    if j == i {
                        continue;
                    }
                    let v = s[idx(i, j)];
                    let better = match local {
                        None => true,
                        Some((bv, bj)) => v > bv || (v == bv && j < bj),
                    };
                    if better {
                        local = Some((v, j));
                    }
                }
                nearest[i] = local;
            }
            if let Some((v, j)) = nearest[i] {
                let better = match best {
                    None => true,
                    Some((bv, bi, bj)) => {
                        v > bv || (v == bv && (i.min(j), i.max(j)) < (bi.min(bj), bi.max(bj)))
                    }
                };
                if better {
                    best = Some((v, i, j));
                }
            }
        }
        let Some((v, u_raw, v_raw)) = best else { break };
        if v < config.min_similarity {
            break;
        }
        let (u, w) = (u_raw.min(v_raw), u_raw.max(v_raw));
        // Merge w into u with the Lance–Williams update.
        let nu = members[u].len() as f64;
        let nw = members[w].len() as f64;
        for &x in &live {
            if x == u || x == w {
                continue;
            }
            let su = s[idx(u, x)];
            let sw = s[idx(w, x)];
            s[idx(u, x)] = match config.linkage {
                Linkage::Single => su.max(sw),
                Linkage::Complete => su.min(sw),
                Linkage::Average => (nu * su + nw * sw) / (nu + nw),
            };
        }
        let mw = std::mem::take(&mut members[w]);
        members[u].extend(mw);
        live.retain(|&i| i != w);
        nearest[u] = None;
        for &i in &live {
            if let Some((_, j)) = nearest[i] {
                if j == u || j == w {
                    nearest[i] = None;
                }
            }
        }
    }

    let clusters: Vec<Vec<u32>> = live
        .into_iter()
        .map(|i| std::mem::take(&mut members[i]))
        .collect();
    Clustering::new(clusters, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::points::Transaction;
    use rock_core::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    fn chain_matrix() -> SimilarityMatrix {
        // A 6-point "chain": consecutive points very similar, the two
        // halves bridged by a medium link; plus distinct cliques.
        SimilarityMatrix::from_fn(6, |i, j| {
            let d = i.abs_diff(j);
            match d {
                1 => 0.9,
                2 => 0.4,
                _ => 0.1,
            }
        })
    }

    #[test]
    fn single_link_chains() {
        // Single link follows the chain: the 6 points collapse pairwise by
        // the strongest edges regardless of cluster diameter.
        let c = similarity_linkage(&chain_matrix(), LinkageConfig::new(2, Linkage::Single));
        assert_eq!(c.num_clusters(), 2);
        // Chaining keeps contiguous runs together.
        for cl in &c.clusters {
            let min = *cl.first().unwrap();
            let max = *cl.last().unwrap();
            assert_eq!((max - min + 1) as usize, cl.len(), "contiguous run");
        }
    }

    #[test]
    fn complete_link_compact() {
        let m = SimilarityMatrix::from_fn(4, |i, j| {
            // 0-1 and 2-3 strongly similar; 1-2 strongly similar too but
            // 0-2/0-3/1-3 dissimilar: complete link refuses the bridge.
            match (j, i) {
                (0, 1) | (2, 3) => 0.95,
                (1, 2) => 0.9,
                _ => 0.05,
            }
        });
        let c = similarity_linkage(&m, LinkageConfig::new(2, Linkage::Complete));
        assert_eq!(c.clusters, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn group_average_on_example_1_2() {
        // §1.1 Example 1.2: group average first merges a cross-cluster
        // pair containing items {1,2} and can end up mixing the two
        // clusters. Verify the failure the paper describes: transactions
        // {1,2,3} and {1,2,7} (different true clusters) land in one
        // cluster.
        let ts = crate::testdata::figure1_transactions();
        let pw = PointsWith::new(&ts, Jaccard);
        let c = similarity_linkage(&pw, LinkageConfig::new(2, Linkage::Average));
        let t123 = ts.iter().position(|t| *t == Transaction::from([1, 2, 3])).unwrap();
        let t127 = ts.iter().position(|t| *t == Transaction::from([1, 2, 7])).unwrap();
        assert_eq!(
            c.cluster_of(t123 as u32),
            c.cluster_of(t127 as u32),
            "group average mixes the overlapping clusters (paper §1.1)"
        );
    }

    #[test]
    fn mst_on_example_1_2_is_fragile() {
        // MST/single-link likewise bridges the two overlapping clusters
        // through the {1,2,x} transactions (Jaccard 0.5 across clusters).
        let ts = crate::testdata::figure1_transactions();
        let pw = PointsWith::new(&ts, Jaccard);
        let c = similarity_linkage(&pw, LinkageConfig::new(2, Linkage::Single));
        // The resulting split cannot be the correct (10, 4): the best
        // cross edge ties the best intra edges at 0.5.
        assert_ne!(c.sizes(), vec![10, 4], "single link bridges the clusters");
    }

    #[test]
    fn min_similarity_stops_early() {
        let m = SimilarityMatrix::from_fn(4, |i, j| if i / 2 == j / 2 { 0.9 } else { 0.0 });
        let mut cfg = LinkageConfig::new(1, Linkage::Single);
        cfg.min_similarity = 0.5;
        let c = similarity_linkage(&m, cfg);
        assert_eq!(c.num_clusters(), 2, "zero-similarity merge refused");
    }

    #[test]
    fn k_one_merges_everything_without_threshold() {
        let m = SimilarityMatrix::from_fn(5, |_, _| 0.5);
        let c = similarity_linkage(&m, LinkageConfig::new(1, Linkage::Average));
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.clusters[0].len(), 5);
    }
}
