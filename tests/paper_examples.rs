//! Cross-crate integration tests reproducing the paper's worked examples
//! (§1.1, §3.2) end-to-end: the traditional algorithms must fail exactly
//! the way the paper says, and ROCK must succeed.

use rock::algorithm::{OutlierPolicy, RockAlgorithm};
use rock::goodness::{ConstantF, Goodness, GoodnessKind};
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::similarity::{Jaccard, PointsWith};
use rock_baselines::{
    centroid_hierarchical, similarity_linkage, transactions_to_vectors, CentroidConfig,
    Linkage, LinkageConfig,
};

/// Example 1.1's four transactions over items 1..=6 (0-based here).
fn example_1_1() -> Vec<Transaction> {
    vec![
        Transaction::from([0, 1, 2, 4]),
        Transaction::from([1, 2, 3, 4]),
        Transaction::from([0, 3]),
        Transaction::from([5]),
    ]
}

/// Fig. 1 / Example 1.2: all 3-subsets of {1..5} (cluster A, ids 0..10)
/// and of {1, 2, 6, 7} (cluster B, ids 10..14).
fn figure1() -> Vec<Transaction> {
    let mut ts = Vec::new();
    let a = [1u32, 2, 3, 4, 5];
    for x in 0..a.len() {
        for y in (x + 1)..a.len() {
            for z in (y + 1)..a.len() {
                ts.push(Transaction::from([a[x], a[y], a[z]]));
            }
        }
    }
    let b = [1u32, 2, 6, 7];
    for x in 0..b.len() {
        for y in (x + 1)..b.len() {
            for z in (y + 1)..b.len() {
                ts.push(Transaction::from([b[x], b[y], b[z]]));
            }
        }
    }
    ts
}

#[test]
fn example_1_1_centroid_merges_disjoint_transactions() {
    // §1.1: the centroid algorithm merges {1,4} and {6} — transactions
    // with no item in common — because of centroid geometry.
    let vs = transactions_to_vectors(&example_1_1(), 6);
    let c = centroid_hierarchical(&vs, CentroidConfig::plain(2));
    assert_eq!(c.clusters, vec![vec![0, 1], vec![2, 3]]);
}

#[test]
fn example_1_1_rock_never_merges_disjoint_transactions() {
    // With links, {1,4} and {6} have no common neighbors and can never
    // be merged, whatever k is requested.
    let ts = example_1_1();
    let graph = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.2, 1);
    let goodness = Goodness::new(0.2, ConstantF(1.0), GoodnessKind::Normalized);
    for k in 1..=3 {
        let run = RockAlgorithm::new(goodness, k, OutlierPolicy::disabled()).run(&graph);
        let a = run.clustering.cluster_of(2);
        let b = run.clustering.cluster_of(3);
        assert_ne!(a, b, "k={k}: disjoint transactions ended up together");
    }
}

#[test]
fn example_1_2_group_average_and_mst_mix_the_clusters() {
    // §1.1: both group average and MST may assign {1,2,3} and {1,2,7}
    // (different true clusters) to one cluster.
    let ts = figure1();
    let t123 = ts.iter().position(|t| *t == Transaction::from([1, 2, 3])).unwrap() as u32;
    let t127 = ts.iter().position(|t| *t == Transaction::from([1, 2, 7])).unwrap() as u32;
    for linkage in [Linkage::Average, Linkage::Single] {
        let c = similarity_linkage(&PointsWith::new(&ts, Jaccard), LinkageConfig::new(2, linkage));
        assert_eq!(
            c.cluster_of(t123),
            c.cluster_of(t127),
            "{linkage:?} was expected to mix the overlapping clusters"
        );
    }
}

#[test]
fn figure1_rock_recovers_both_clusters() {
    // §3.2: with θ = 0.5 the link-based approach generates the correct
    // clusters (f ≈ 1 here: every transaction neighbors most of its
    // cluster — see rock-core's algorithm tests for the f-sensitivity).
    let ts = figure1();
    let graph = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
    let goodness = Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized);
    let run = RockAlgorithm::new(goodness, 2, OutlierPolicy::default()).run(&graph);
    assert_eq!(run.clustering.sizes(), vec![10, 4]);
    assert_eq!(run.clustering.clusters[0], (0u32..10).collect::<Vec<_>>());
    assert_eq!(run.clustering.clusters[1], (10u32..14).collect::<Vec<_>>());
}

#[test]
fn figure1_link_counts_match_paper() {
    // §3.2's arithmetic, end-to-end through the public API.
    let ts = figure1();
    let graph = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
    let links = rock::LinkMatrix::compute_sparse(&graph, 1);
    let id = |items: [u32; 3]| {
        ts.iter()
            .position(|t| *t == Transaction::from(items))
            .unwrap()
    };
    assert_eq!(links.count(id([1, 2, 6]), id([1, 2, 7])), 5);
    assert_eq!(links.count(id([1, 2, 6]), id([1, 2, 3])), 3);
    assert_eq!(links.count(id([1, 6, 7]), id([1, 2, 6])), 2);
    assert_eq!(links.count(id([1, 6, 7]), id([3, 4, 5])), 0);
}

#[test]
fn jaccard_paradox_from_example_1_2() {
    // {1,2,3} and {1,2,7} are *more* Jaccard-similar (0.5) than {1,2,3}
    // and {3,4,5} (0.2) even though only the latter pair shares a true
    // cluster — the motivation for links.
    let cross = Transaction::from([1, 2, 3]).jaccard(&Transaction::from([1, 2, 7]));
    let within = Transaction::from([1, 2, 3]).jaccard(&Transaction::from([3, 4, 5]));
    assert!(cross > within);
    assert_eq!(cross, 0.5);
    assert!((within - 0.2).abs() < 1e-12);
}
