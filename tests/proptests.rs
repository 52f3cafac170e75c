//! Property-based tests (proptest) over the core data structures and
//! invariants of the ROCK pipeline.

use proptest::collection::vec;
use proptest::prelude::*;
use rock::algorithm::{OutlierPolicy, RockAlgorithm, WeedPolicy};
use rock::goodness::{BasketF, Goodness, GoodnessKind};
use rock::neighbors::NeighborGraph;
use rock::points::{CategoricalRecord, Transaction};
use rock::similarity::{
    CategoricalJaccard, Jaccard, MissingPolicy, PairwiseSimilarity, PointsWith, Similarity,
    SimilarityMatrix,
};
use rock::LinkMatrix;

/// Strategy: a set of transactions over a small item universe.
fn transactions(max_points: usize) -> impl Strategy<Value = Vec<Transaction>> {
    vec(vec(0u32..20, 1..8), 2..max_points)
        .prop_map(|vs| vs.into_iter().map(Transaction::new).collect())
}

/// Strategy: a random symmetric similarity matrix.
fn sim_matrix(max_points: usize) -> impl Strategy<Value = SimilarityMatrix> {
    (2..max_points).prop_flat_map(|n| {
        vec(0.0f64..=1.0, n * (n - 1) / 2).prop_map(move |tri| {
            let mut m = SimilarityMatrix::new(n);
            let mut it = tri.into_iter();
            for i in 1..n {
                for j in 0..i {
                    m.set(i, j, it.next().unwrap());
                }
            }
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jaccard_is_a_valid_similarity(ts in transactions(12)) {
        for a in &ts {
            for b in &ts {
                let s = Jaccard.similarity(a, b);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert_eq!(s, Jaccard.similarity(b, a));
            }
            if !a.is_empty() {
                prop_assert_eq!(Jaccard.similarity(a, a), 1.0);
            }
        }
    }

    #[test]
    fn categorical_policies_agree_on_complete_records(
        values in vec(vec(0u32..4, 6..7), 2..10)
    ) {
        let records: Vec<CategoricalRecord> =
            values.into_iter().map(CategoricalRecord::complete).collect();
        let ignore = CategoricalJaccard::new(MissingPolicy::Ignore);
        let common = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
        for a in &records {
            for b in &records {
                let x = ignore.similarity(a, b);
                let y = common.similarity(a, b);
                prop_assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn neighbor_graph_is_symmetric_and_thresholded(
        m in sim_matrix(20),
        theta in 0.0f64..=1.0
    ) {
        let g = NeighborGraph::build(&m, theta, 1);
        for i in 0..g.len() {
            for &j in g.neighbors(i) {
                prop_assert!(m.sim(i, j as usize) >= theta);
                prop_assert!(g.are_neighbors(j as usize, i));
            }
            // No self loops; all above-threshold pairs present.
            prop_assert!(!g.are_neighbors(i, i));
            for j in 0..g.len() {
                if j != i && m.sim(i, j) >= theta {
                    prop_assert!(g.are_neighbors(i, j));
                }
            }
        }
    }

    #[test]
    fn link_counts_are_bounded_by_min_degree(ts in transactions(16)) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.3, 1);
        let links = LinkMatrix::compute_sparse(&g, 1);
        for ((i, j), c) in links.iter_upper() {
            let bound = g.degree(i as usize).min(g.degree(j as usize)) as u32;
            prop_assert!(c <= bound, "link({i},{j}) = {c} > min degree {bound}");
        }
    }

    #[test]
    fn clustering_is_a_partition(
        ts in transactions(20),
        theta in 0.1f64..0.9,
        k in 1usize..6
    ) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta, 1);
        let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
        let run = RockAlgorithm::new(goodness, k, OutlierPolicy::default()).run(&g);
        let mut seen = vec![false; ts.len()];
        for cluster in &run.clustering.clusters {
            for &p in cluster {
                prop_assert!(!seen[p as usize], "point {p} in two clusters");
                seen[p as usize] = true;
            }
        }
        for &p in &run.clustering.outliers {
            prop_assert!(!seen[p as usize], "outlier {p} also clustered");
            seen[p as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some point lost");
        // Never fewer clusters than requested unless links ran out, in
        // which case every remaining pair of clusters has zero links —
        // checked indirectly: cluster count ≥ k OR no merge was possible.
        prop_assert!(run.clustering.num_clusters() + run.clustering.outliers.len() >= 1);
    }

    #[test]
    fn weeding_only_moves_small_clusters_to_outliers(
        ts in transactions(20),
        min_size in 1usize..4
    ) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.4, 1);
        let goodness = Goodness::new(0.4, BasketF, GoodnessKind::Normalized);
        let without = RockAlgorithm::new(goodness, 2, OutlierPolicy::default()).run(&g);
        let with = RockAlgorithm::new(
            goodness,
            2,
            OutlierPolicy {
                min_neighbors: 1,
                weed: Some(WeedPolicy {
                    stop_multiple: 1.0,
                    min_cluster_size: min_size,
                }),
            },
        )
        .run(&g);
        // Weeding at stop_multiple=1 weeds exactly at the end state, so
        // surviving clusters are the un-weeded ones of size ≥ min_size.
        let expected: Vec<&Vec<u32>> = without
            .clustering
            .clusters
            .iter()
            .filter(|c| c.len() >= min_size)
            .collect();
        prop_assert_eq!(with.clustering.clusters.len(), expected.len());
        prop_assert!(with
            .clustering
            .clusters
            .iter()
            .all(|c| c.len() >= min_size));
    }

    #[test]
    fn merge_goodness_is_finite_and_nonnegative(
        links in 0u64..10_000,
        n1 in 1usize..5000,
        n2 in 1usize..5000,
        theta in 0.01f64..0.99
    ) {
        let g = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
        let v = g.merge_goodness(links, n1, n2);
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
    }

    #[test]
    fn criterion_value_invariant_under_cluster_order(
        ts in transactions(14)
    ) {
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.3, 1);
        let links = LinkMatrix::compute_sparse(&g, 1);
        let good = Goodness::new(0.3, BasketF, GoodnessKind::Normalized);
        let n = ts.len() as u32;
        let half = n / 2;
        let a = vec![(0..half).collect::<Vec<u32>>(), (half..n).collect()];
        let b = vec![(half..n).collect::<Vec<u32>>(), (0..half).collect()];
        let ea = rock::criterion_fn::criterion_value(&links, &a, &good);
        let eb = rock::criterion_fn::criterion_value(&links, &b, &good);
        prop_assert!((ea - eb).abs() < 1e-9);
    }

    #[test]
    fn reservoir_samplers_honour_size_and_range(
        n in 0usize..400,
        k in 0usize..50,
        seed in any::<u64>()
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for sample in [
            rock::sampling::reservoir_sample_r(0..n, k, &mut rng),
            rock::sampling::reservoir_sample_x(0..n, k, &mut rng),
        ] {
            prop_assert_eq!(sample.len(), k.min(n));
            let mut s = sample.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), sample.len(), "duplicates in sample");
            prop_assert!(sample.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn hungarian_assignment_is_injective_and_optimal_2x2(
        a in 0.0f64..100.0, b in 0.0f64..100.0,
        c in 0.0f64..100.0, d in 0.0f64..100.0
    ) {
        let cost = vec![vec![a, b], vec![c, d]];
        let assign = rock_eval::minimum_cost_assignment(&cost);
        let total: f64 = assign
            .iter()
            .enumerate()
            .filter_map(|(i, x)| x.map(|j| cost[i][j]))
            .sum();
        prop_assert!((total - (a + d).min(b + c)).abs() < 1e-9);
    }

    #[test]
    fn agreement_indices_within_bounds(
        labels in vec((0usize..4, 0usize..4), 2..80)
    ) {
        let (a, b): (Vec<usize>, Vec<usize>) = labels.into_iter().unzip();
        let ri = rock_eval::rand_index(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ri));
        let ari = rock_eval::adjusted_rand_index(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&ari));
        let nmi = rock_eval::normalized_mutual_information(&a, &b);
        prop_assert!((0.0..=1.0).contains(&nmi));
        // Perfect agreement with itself.
        prop_assert_eq!(rock_eval::adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    fn misclassification_zero_iff_same_partition(
        labels in vec(proptest::option::of(0usize..5), 1..60)
    ) {
        let m = rock_eval::count_misclassified(&labels, &labels);
        prop_assert_eq!(m.misclassified, 0);
        prop_assert_eq!(m.total, labels.len());
    }

    #[test]
    fn readers_never_panic_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        use std::io::BufReader;
        // Every reader must turn arbitrary corrupted/truncated bytes into
        // Ok or Err — never a panic.
        let mut catalog = rock::points::ItemCatalog::new();
        let _ = rock_data::read_baskets(BufReader::new(bytes.as_slice()), &mut catalog);
        // The numeric reader and the collected stream parse through one
        // line parser: the same transactions, or the same error text.
        let read = rock_data::read_baskets_numeric(BufReader::new(bytes.as_slice()))
            .map_err(|e| e.to_string());
        let streamed = rock_data::stream_baskets(BufReader::new(bytes.as_slice()))
            .collect::<std::io::Result<Vec<Transaction>>>()
            .map_err(|e| e.to_string());
        prop_assert_eq!(read, streamed);
        let config = rock_data::ResilientConfig {
            retry: rock_data::RetryPolicy::no_backoff(2),
            max_quarantine: usize::MAX,
            ..rock_data::ResilientConfig::default()
        };
        let _ = rock_data::read_baskets_resilient(
            BufReader::new(bytes.as_slice()),
            &config,
            None,
        );
        let labeler = rock::labeling::Labeler::full(
            &[Transaction::from([1, 2, 3]), Transaction::from([9, 10])],
            &[vec![0], vec![1]],
            0.4,
            1.0 / 3.0,
        );
        let _ = rock_data::label_stream_resilient(
            BufReader::new(bytes.as_slice()),
            &labeler,
            &Jaccard,
            &config,
            None,
            |_| {},
            &rock::governor::RunGovernor::unlimited(),
            1,
        );
    }

    #[test]
    fn corrupted_images_never_panic_readers(
        lines in vec(vec(0u32..1000, 0..6), 0..40),
        seed in any::<u64>(),
        garbage in 0.0f64..=1.0,
        truncate in 0.0f64..=1.0
    ) {
        use std::io::BufReader;
        let image: String = lines
            .iter()
            .map(|l| {
                let toks: Vec<String> = l.iter().map(u32::to_string).collect();
                format!("{}\n", toks.join(" "))
            })
            .collect();
        let spec = rock_data::FaultSpec::none(seed).garbage(garbage).truncate(truncate);
        let corrupted = rock_data::corrupt_baskets(&image, &spec);
        // Corruption never changes the line count.
        prop_assert_eq!(corrupted.lines().count(), image.lines().count());
        let _ = rock_data::read_baskets_numeric(BufReader::new(corrupted.as_bytes()));
        let config = rock_data::ResilientConfig {
            retry: rock_data::RetryPolicy::no_backoff(2),
            max_quarantine: usize::MAX,
            ..rock_data::ResilientConfig::default()
        };
        let (ts, report, cp) = rock_data::read_baskets_resilient(
            BufReader::new(corrupted.as_bytes()),
            &config,
            None,
        )
        .expect("quarantine absorbs all corruption");
        prop_assert_eq!(
            cp.records_read + cp.records_skipped + cp.records_quarantined,
            corrupted.lines().count() as u64
        );
        prop_assert_eq!(ts.len() as u64, report.records_read);
    }

    #[test]
    fn checkpoint_decode_never_panics(
        tail in vec(any::<u8>(), 0..300),
        magic in any::<bool>(),
    ) {
        // Half the inputs pass the magic, so the frame reader sees them.
        let head: &[u8] = if magic { b"ROCKCKP1" } else { b"" };
        let _ = rock_data::Checkpoint::decode(&[head, &tail].concat());
    }

    #[test]
    fn faulty_reader_delivers_exact_bytes_through_retries(
        payload in vec(any::<u8>(), 0..600),
        seed in any::<u64>(),
        rate in 0.0f64..0.5,
        burst in 1u32..4,
        chunk in 1usize..32
    ) {
        use std::io::Read;
        let spec = rock_data::FaultSpec::none(seed)
            .transient(rate, burst)
            .chunk(chunk);
        let mut reader = rock_data::FaultyReader::new(payload.as_slice(), spec);
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match reader.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => prop_assert!(
                    rock_data::RetryPolicy::is_transient(&e),
                    "injected fault must look transient, got {e:?}"
                ),
            }
        }
        prop_assert_eq!(out, payload, "fault injection corrupted the byte stream");
    }
}
