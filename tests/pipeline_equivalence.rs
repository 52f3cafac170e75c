//! Equivalence gates for the staged pipeline engine.
//!
//! `Rock::run`, `Rock::cluster_wal` and the resume entry points are
//! composed from `engine::Pipeline` stages. These tests pin the refactor
//! to the pre-engine behaviour by rebuilding each driver from the
//! unchanged primitives (`sample_indices` → `NeighborGraph` →
//! `LinkMatrix` → `RockAlgorithm` → `Labeler`) and demanding
//! **bit-identical** results:
//!
//! 1. the full Fig.-2 fit (sample indices, merge trace, clustering and
//!    labeling) matches the hand-composed reference across thread counts
//!    {1, 2, 8}, hash seeds and sample sizes;
//! 2. a journaled run produces byte-identical WAL content to
//!    `RockAlgorithm::run_governed` driving the same `MergeWal`;
//! 3. the crash_resume fault matrix holds with an explicitly seeded
//!    hasher: kill-at-any-merge + resume ≡ uninterrupted, and the
//!    continuation log replays to the same final state.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use rock::governor::{Phase, RunGovernor};
use rock::labeling::{Labeler, Labeling};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::{Jaccard, PointsWith};
use rock::wal::{parse_wal, MergeWal};
use rock::{
    Clustering, ConstantF, Goodness, IncrementalState, LinkMatrix, MergeBound, NeighborGraph,
    OutlierPolicy, RockAlgorithm, RockError, RockRun,
};

/// Three well-separated basket clusters over disjoint item ranges (the
/// crash_resume fixture).
fn three_clusters(n_each: usize) -> Vec<Transaction> {
    let mut data = Vec::new();
    for c in 0..3u32 {
        let base = c * 100;
        let mut i = 0;
        'outer: for x in 0..7u32 {
            for y in (x + 1)..7 {
                for z in (y + 1)..7 {
                    data.push(Transaction::from([base + x, base + y, base + z]));
                    i += 1;
                    if i >= n_each {
                        break 'outer;
                    }
                }
            }
        }
    }
    data
}

fn engine(threads: usize, hash_seed: Option<u64>, sample_size: Option<usize>) -> Rock {
    let mut b = Rock::builder().theta(0.4).clusters(3).threads(threads).seed(11);
    if let Some(h) = hash_seed {
        b = b.hash_seed(h);
    }
    if let Some(s) = sample_size {
        b = b.sample_size(s);
    }
    b.build().unwrap()
}

/// The pre-engine driver, composed by hand from the unchanged
/// primitives, reading every knob from the built configuration.
fn reference_fit(rock: &Rock, data: &[Transaction]) -> (Vec<usize>, RockRun, Labeling) {
    let cfg = rock.config();
    let mut rng = StdRng::seed_from_u64(cfg.seed.expect("test engines are seeded"));
    let sample_indices: Vec<usize> = match cfg.sample_size {
        Some(size) if size < data.len() => {
            rock::sampling::sample_indices(data.len(), size, &mut rng)
        }
        _ => (0..data.len()).collect(),
    };
    let sample: Vec<Transaction> = sample_indices.iter().map(|&i| data[i].clone()).collect();
    let pw = PointsWith::new(&sample, Jaccard);
    let graph = NeighborGraph::build(&pw, cfg.theta, cfg.threads);
    let goodness = Goodness::new(cfg.theta, ConstantF(cfg.ftheta), cfg.goodness_kind);
    let mut algorithm = RockAlgorithm::new(goodness, cfg.k, OutlierPolicy::default());
    if let Some(h) = cfg.hash_seed {
        algorithm = algorithm.with_hash_seed(h);
    }
    let links = LinkMatrix::compute_auto(&graph, cfg.threads);
    let unlimited = RunGovernor::unlimited();
    let run = algorithm
        .run_governed(&graph, &links, &unlimited, None)
        .expect("an unlimited governor never trips");
    let labeler = Labeler::new(
        &sample,
        &run.clustering.clusters,
        cfg.labeling_fraction,
        cfg.theta,
        cfg.ftheta,
        &mut rng,
    )
    .expect("validated parameters");
    let labeling = labeler
        .label_all(data, &Jaccard, cfg.threads, &unlimited)
        .expect("an unlimited governor never trips");
    (sample_indices, run, labeling)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    // Gate 1: the staged fit is bit-identical to the hand-composed
    // reference — same sample, same merge trace, same clustering, same
    // per-point labels — across threads × hash seeds × sample sizes.
    #[test]
    fn staged_fit_matches_reference_composition(
        threads_idx in 0usize..3,
        hash_seed in proptest::option::of(0u64..1000),
        sampled in any::<bool>(),
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let data = three_clusters(18);
        let sample_size = sampled.then_some(36);
        let rock = engine(threads, hash_seed, sample_size);

        let (ref_indices, ref_run, ref_labeling) = reference_fit(&rock, &data);
        let (result, report) = rock.run(&data, &Jaccard).unwrap();

        prop_assert_eq!(&result.sample_indices, &ref_indices);
        prop_assert_eq!(&result.sample_run.clustering, &ref_run.clustering);
        prop_assert_eq!(&result.sample_run.merges, &ref_run.merges);
        prop_assert_eq!(&result.sample_run.initial_points, &ref_run.initial_points);
        prop_assert_eq!(&result.labeling.assignments, &ref_labeling.assignments);

        // The staged report keeps the pre-engine phase names.
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        prop_assert_eq!(names, vec!["sample", "cluster", "label"]);
        prop_assert!(report.degraded.is_none());

        // And `Rock::cluster` over the drawn sample reproduces the
        // fit's cluster phase.
        let sample: Vec<Transaction> = ref_indices.iter().map(|&i| data[i].clone()).collect();
        let clustered = rock.cluster(&sample, &Jaccard).unwrap();
        prop_assert_eq!(&clustered.clustering, &result.sample_run.clustering);
        prop_assert_eq!(&clustered.merges, &result.sample_run.merges);
    }

    // Gate 2: the journaled path writes byte-identical WAL content to
    // `RockAlgorithm::run_governed` over the same graph.
    #[test]
    fn journaled_fit_writes_identical_wal_bytes(
        threads_idx in 0usize..3,
        hash_seed in proptest::option::of(0u64..1000),
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let data = three_clusters(14);
        let rock = engine(threads, hash_seed, None);
        let cfg = rock.config();

        let pw = PointsWith::new(&data, Jaccard);
        let graph = NeighborGraph::build(&pw, cfg.theta, threads);
        let goodness = Goodness::new(cfg.theta, ConstantF(cfg.ftheta), cfg.goodness_kind);
        let mut algorithm = RockAlgorithm::new(goodness, cfg.k, OutlierPolicy::default());
        if let Some(h) = cfg.hash_seed {
            algorithm = algorithm.with_hash_seed(h);
        }
        let links = LinkMatrix::compute_auto(&graph, threads);
        let mut ref_wal = MergeWal::new();
        let ref_run = algorithm
            .run_governed(&graph, &links, &RunGovernor::unlimited(), Some(&mut ref_wal))
            .unwrap();

        let mut wal = MergeWal::new();
        let run = rock.cluster_wal(&data, &Jaccard, &mut wal).unwrap();

        prop_assert_eq!(&run.clustering, &ref_run.clustering);
        prop_assert_eq!(&run.merges, &ref_run.merges);
        prop_assert_eq!(wal.as_bytes(), ref_wal.as_bytes(), "WAL bytes diverged");
    }

    // Gate 3: the crash_resume fault matrix with a seeded hasher — kill
    // at any merge, resume from the log, compare against uninterrupted.
    #[test]
    fn seeded_hasher_kill_resume_is_bit_identical(
        k in 0u64..60,
        threads_idx in 0usize..3,
        hash_seed in 0u64..1000,
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let data = three_clusters(18);
        let baseline = engine(threads, Some(hash_seed), None).cluster(&data, &Jaccard).unwrap();

        let killer = Rock::builder()
            .theta(0.4)
            .clusters(3)
            .threads(threads)
            .seed(11)
            .hash_seed(hash_seed)
            .governor(RunGovernor::unlimited().with_kill_at(Phase::Merge, k))
            .build()
            .unwrap();
        let mut wal = MergeWal::new();
        match killer.cluster_wal(&data, &Jaccard, &mut wal) {
            Ok(run) => {
                prop_assert_eq!(&run.clustering, &baseline.clustering);
                prop_assert_eq!(&run.merges, &baseline.merges);
            }
            Err(RockError::Interrupted { phase, resumable, .. }) => {
                prop_assert_eq!(phase, Phase::Merge);
                prop_assert!(resumable);
                prop_assert_eq!(parse_wal(wal.as_bytes()).unwrap().num_merges() as u64, k);
                let resumed = engine(threads, Some(hash_seed), None)
                    .resume_cluster(&data, &Jaccard, wal.as_bytes(), None)
                    .unwrap();
                prop_assert_eq!(&resumed.clustering, &baseline.clustering);
                prop_assert_eq!(&resumed.merges, &baseline.merges);
                prop_assert_eq!(&resumed.initial_points, &baseline.initial_points);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    // Gate 4: the extracted incremental core. Driving the merge loop
    // through the public `IncrementalState` surface — singleton clusters
    // plus the link matrix's pairs, merged under an uncapped `MergeBound`
    // to the same k — reproduces the batch engine's merge trace and
    // clustering bit-for-bit, across threads × hash seeds. And a run
    // capped at any mid-loop cut is a prefix of that trace whose
    // canonical state image is identical across rebuilds, which is what
    // makes the image serializable.
    #[test]
    fn incremental_state_drives_the_batch_merge_loop_bit_identically(
        threads_idx in 0usize..3,
        hash_seed in 0u64..1000,
        cut in 0usize..40,
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let data = three_clusters(18);
        let rock = engine(threads, Some(hash_seed), None);
        let cfg = rock.config();
        let pw = PointsWith::new(&data, Jaccard);
        let graph = NeighborGraph::build(&pw, cfg.theta, threads);
        let goodness = Goodness::new(cfg.theta, ConstantF(cfg.ftheta), cfg.goodness_kind);
        let links = LinkMatrix::compute_auto(&graph, threads);
        let baseline = RockAlgorithm::new(goodness, cfg.k, OutlierPolicy::disabled())
            .with_hash_seed(hash_seed)
            .run_governed(&graph, &links, &RunGovernor::unlimited(), None)
            .unwrap();

        let singletons: Vec<Vec<u32>> = (0..data.len() as u32).map(|p| vec![p]).collect();
        let pairs: Vec<(u32, u32, u64)> =
            links.iter_upper().map(|((i, j), c)| (i, j, u64::from(c))).collect();
        let unbounded = MergeBound {
            min_goodness: f64::NEG_INFINITY,
            min_clusters: cfg.k,
            max_merges: usize::MAX,
            max_cluster_size: usize::MAX,
        };

        let mut st = IncrementalState::from_clusters(singletons.clone(), &pairs, goodness);
        let records = st.bounded_merge(&unbounded);
        prop_assert_eq!(&records, &baseline.merges);
        let clusters: Vec<Vec<u32>> = st.live_clusters().into_iter().map(|(_, m)| m).collect();
        prop_assert_eq!(Clustering::new(clusters, vec![]), baseline.clustering.clone());

        // Image determinism: stop after `cut` merges in two independently
        // built states and demand the trace prefix and the identical
        // canonical image.
        let capped = MergeBound { max_merges: cut, ..unbounded };
        let mut a = IncrementalState::from_clusters(singletons.clone(), &pairs, goodness);
        let mut b = IncrementalState::from_clusters(singletons, &pairs, goodness);
        let ra = a.bounded_merge(&capped);
        let rb = b.bounded_merge(&capped);
        prop_assert_eq!(&ra[..], &records[..cut.min(records.len())]);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a.live_clusters(), b.live_clusters());
        prop_assert_eq!(a.canonical_links(), b.canonical_links());
    }
}

/// A re-interrupted resume continues through its continuation log to the
/// same final state, with the seeded hasher in play — the chained
/// variant of gate 3.
#[test]
fn seeded_hasher_chained_continuation_resumes() {
    let data = three_clusters(18);
    let baseline = engine(2, Some(77), None).cluster(&data, &Jaccard).unwrap();

    let kill_at = |k: u64| {
        Rock::builder()
            .theta(0.4)
            .clusters(3)
            .threads(2)
            .seed(11)
            .hash_seed(77)
            .governor(RunGovernor::unlimited().with_kill_at(Phase::Merge, k))
            .build()
            .unwrap()
    };

    let mut wal1 = MergeWal::new();
    let err = kill_at(4).cluster_wal(&data, &Jaccard, &mut wal1).unwrap_err();
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));

    let mut wal2 = MergeWal::new();
    let err = kill_at(10)
        .resume_cluster(&data, &Jaccard, wal1.as_bytes(), Some(&mut wal2))
        .unwrap_err();
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));
    assert_eq!(parse_wal(wal2.as_bytes()).unwrap().num_merges(), 10);

    let resumed = engine(2, Some(77), None)
        .resume_cluster(&data, &Jaccard, wal2.as_bytes(), None)
        .unwrap();
    assert_eq!(resumed.clustering, baseline.clustering);
    assert_eq!(resumed.merges, baseline.merges);
}

/// Snapshot resume (no data, no entry checkpoints) through the staged
/// path equals the uninterrupted run.
#[test]
fn snapshot_resume_through_pipeline_matches() {
    let data = three_clusters(18);
    let baseline = engine(2, Some(5), None).cluster(&data, &Jaccard).unwrap();

    let mut wal = MergeWal::new().with_snapshot_every(4);
    let err = Rock::builder()
        .theta(0.4)
        .clusters(3)
        .threads(2)
        .seed(11)
        .hash_seed(5)
        .governor(RunGovernor::unlimited().with_kill_at(Phase::Merge, 13))
        .build()
        .unwrap()
        .cluster_wal(&data, &Jaccard, &mut wal)
        .unwrap_err();
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));

    let resumed = engine(2, Some(5), None)
        .resume_cluster_snapshot(wal.as_bytes(), None)
        .unwrap();
    assert_eq!(resumed.clustering, baseline.clustering);
    assert_eq!(resumed.merges, baseline.merges);
}
