//! Hasher-independence regression tests.
//!
//! A hash map's iteration order is an accident of its hasher, and
//! bit-identical output is the core guarantee, so no accident of bucket
//! order may ever reach the clustering, the merge trace or the WAL
//! bytes. rock-tidy's `nondeterministic-iter` rule enforces that
//! statically; these property tests enforce it dynamically, by running
//! the same input under the default hasher and under a seeded
//! `RockConfig::hash_seed` and diffing the outputs.

use proptest::collection::vec;
use proptest::prelude::*;
use rock::algorithm::{OutlierPolicy, RockAlgorithm, WeedPolicy};
use rock::goodness::{BasketF, Goodness, GoodnessKind};
use rock::governor::RunGovernor;
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::similarity::{Jaccard, PointsWith};
use rock::wal::MergeWal;
use rock::LinkMatrix;

/// Strategy: a set of transactions over a small item universe.
fn transactions(max_points: usize) -> impl Strategy<Value = Vec<Transaction>> {
    vec(vec(0u32..20, 1..8), 2..max_points)
        .prop_map(|vs| vs.into_iter().map(Transaction::new).collect())
}

/// Asserts that two runs are indistinguishable, field by field.
macro_rules! assert_same_run {
    ($a:expr, $b:expr) => {
        prop_assert_eq!(&$a.clustering, &$b.clustering);
        prop_assert_eq!(&$a.merges, &$b.merges);
        prop_assert_eq!(&$a.initial_points, &$b.initial_points);
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The merge loop with pruning and weeding produces bit-identical
    // results under any hash seed.
    #[test]
    fn clustering_is_identical_across_hash_seeds(
        ts in transactions(20),
        theta in 0.1f64..0.9,
        k in 1usize..5,
        seed in 1u64..u64::MAX,
    ) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta, 1);
        let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
        let outliers = OutlierPolicy {
            min_neighbors: 1,
            weed: Some(WeedPolicy {
                stop_multiple: 1.5,
                min_cluster_size: 2,
            }),
        };
        let algo = RockAlgorithm::new(goodness, k, outliers);

        let governor = RunGovernor::unlimited();
        let links = LinkMatrix::compute_sparse(&g, 1);
        let baseline = algo
            .run_governed(&g, &links, &governor, None)
            .expect("unlimited governor");

        let seeded = algo
            .with_hash_seed(seed)
            .run_governed(&g, &links, &governor, None)
            .expect("unlimited governor");

        assert_same_run!(baseline, seeded);
    }

    // The WAL is part of the bit-identity contract: the logged merge
    // history (and its embedded snapshots) must not depend on the
    // hasher either, or a crash under one build could not be resumed
    // and verified under another.
    #[test]
    fn wal_bytes_are_identical_across_hash_seeds(
        ts in transactions(16),
        theta in 0.2f64..0.8,
        seed in 1u64..u64::MAX,
    ) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta, 1);
        let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
        let algo = RockAlgorithm::new(goodness, 2, OutlierPolicy::default());
        let governor = RunGovernor::unlimited();
        let links = LinkMatrix::compute_auto(&g, 1);

        let mut wal_a = MergeWal::new().with_snapshot_every(4);
        let run_a = algo
            .run_governed(&g, &links, &governor, Some(&mut wal_a))
            .expect("unlimited governor");

        let mut wal_b = MergeWal::new().with_snapshot_every(4);
        let run_b = algo
            .with_hash_seed(seed)
            .run_governed(&g, &links, &governor, Some(&mut wal_b))
            .expect("unlimited governor");

        assert_same_run!(run_a, run_b);
        prop_assert_eq!(wal_a.as_bytes(), wal_b.as_bytes());
    }

    // Resuming a seeded run from a default-hasher WAL (and vice versa)
    // reconstructs the same final state: snapshot restore paths are
    // hasher-independent too.
    #[test]
    fn resume_crosses_hash_seeds(
        ts in transactions(16),
        theta in 0.2f64..0.8,
        seed in 1u64..u64::MAX,
    ) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta, 1);
        let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
        let algo = RockAlgorithm::new(goodness, 2, OutlierPolicy::default());
        let governor = RunGovernor::unlimited();
        let links = LinkMatrix::compute_auto(&g, 1);

        let mut wal = MergeWal::new().with_snapshot_every(2);
        let complete = algo
            .run_governed(&g, &links, &governor, Some(&mut wal))
            .expect("unlimited governor");

        // Replay the finished log under a scrambled hasher: the replayed
        // trace must verify and the final clustering must match.
        let resumed = algo
            .with_hash_seed(seed)
            .resume(wal.as_bytes(), Some(&g), 1, &governor, None)
            .expect("replaying a complete WAL succeeds");

        assert_same_run!(complete, resumed);
    }
}
