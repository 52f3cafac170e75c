//! DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996), the density-based
//! algorithm the paper discusses in §2: "grows clusters by including the
//! dense neighborhoods of points already in the cluster. This approach,
//! however, may be prone to errors if clusters are not well-separated."
//!
//! Implemented over the same θ-neighbor graph ROCK uses (a similarity
//! threshold is exactly an ε-radius in similarity space), so the two
//! algorithms are compared on identical neighborhoods — the only
//! difference is density-reachability vs links.

use rock_core::cluster::Clustering;
use rock_core::neighbors::NeighborGraph;

/// DBSCAN configuration.
#[derive(Clone, Copy, Debug)]
pub struct DbscanConfig {
    /// A point is a *core* point if it has at least this many neighbors
    /// (the point itself included, as in the original paper's `MinPts`).
    pub min_pts: usize,
}

impl DbscanConfig {
    /// The common default `MinPts = 4`.
    pub fn new(min_pts: usize) -> Self {
        DbscanConfig { min_pts }
    }
}

/// Runs DBSCAN over a prebuilt neighbor graph.
///
/// Clusters are maximal sets of density-connected points; border points
/// (non-core neighbors of a core point) join the first cluster that
/// reaches them; everything else is noise (reported as outliers).
pub fn dbscan(graph: &NeighborGraph, config: DbscanConfig) -> Clustering {
    let n = graph.len();
    const UNVISITED: u32 = u32::MAX;
    const NOISE: u32 = u32::MAX - 1;
    let mut label = vec![UNVISITED; n];
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    let is_core = |p: usize| graph.degree(p) + 1 >= config.min_pts;

    let mut queue: Vec<u32> = Vec::new();
    for p in 0..n {
        if label[p] != UNVISITED {
            continue;
        }
        if !is_core(p) {
            label[p] = NOISE;
            continue;
        }
        // Start a new cluster and expand by density-reachability.
        let cid = clusters.len() as u32;
        clusters.push(Vec::new());
        label[p] = cid;
        clusters[cid as usize].push(p as u32);
        queue.clear();
        queue.push(p as u32);
        while let Some(q) = queue.pop() {
            if !is_core(q as usize) {
                continue; // border point: belongs, but doesn't expand
            }
            for &r in graph.neighbors(q as usize) {
                let l = label[r as usize];
                if l == UNVISITED || l == NOISE {
                    label[r as usize] = cid;
                    clusters[cid as usize].push(r);
                    queue.push(r);
                }
            }
        }
    }

    let outliers: Vec<u32> = (0..n as u32)
        .filter(|&p| label[p as usize] == NOISE)
        .collect();
    Clustering::new(clusters, outliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::points::Transaction;
    use rock_core::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    #[test]
    fn separated_dense_groups() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([10, 12, 13]),
            Transaction::from([11, 12, 13]),
            Transaction::from([99]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let c = dbscan(&g, DbscanConfig::new(3));
        assert_eq!(c.sizes(), vec![4, 4]);
        assert_eq!(c.outliers, vec![8]);
    }

    #[test]
    fn border_points_join_but_do_not_expand() {
        // A 4-clique with a pendant border point, and min_pts = 4: the
        // pendant (1 neighbor) is border, reachable from the core.
        let mut m = SimilarityMatrix::new(6);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    m.set(i, j, 0.9);
                }
            }
        }
        m.set(3, 4, 0.9); // border point 4
        m.set(4, 5, 0.9); // 5 hangs off the border point — NOT reachable
        let g = NeighborGraph::build(&m, 0.5, 1);
        let c = dbscan(&g, DbscanConfig::new(4));
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.clusters[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(c.outliers, vec![5]);
    }

    #[test]
    fn chains_across_overlap_like_the_paper_warns() {
        // Fig.-1 data: density-reachability chains through the shared
        // {1,2,x} transactions, merging the two true clusters — the §2
        // criticism ("prone to errors if clusters are not
        // well-separated").
        let ts = {
            let mut ts = Vec::new();
            let a = [1u32, 2, 3, 4, 5];
            for x in 0..5 {
                for y in (x + 1)..5 {
                    for z in (y + 1)..5 {
                        ts.push(Transaction::from([a[x], a[y], a[z]]));
                    }
                }
            }
            let b = [1u32, 2, 6, 7];
            for x in 0..4 {
                for y in (x + 1)..4 {
                    for z in (y + 1)..4 {
                        ts.push(Transaction::from([b[x], b[y], b[z]]));
                    }
                }
            }
            ts
        };
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let c = dbscan(&g, DbscanConfig::new(3));
        assert_eq!(c.num_clusters(), 1, "DBSCAN merges Fig. 1's clusters");
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let m = SimilarityMatrix::new(4);
        let g = NeighborGraph::build(&m, 0.5, 1);
        let c = dbscan(&g, DbscanConfig::new(2));
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.outliers.len(), 4);
    }
}
