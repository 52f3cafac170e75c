//! Invariance properties for the range-sharded kernels introduced by the
//! kernel speed round, beyond the thread-count sweeps in
//! `tests/parallel_determinism.rs`:
//!
//! * **Shard-boundary invariance** — the sharded link kernel's output
//!   must not depend on *where* the row ranges are cut, only on the
//!   graph. `LinkMatrix::compute_sparse_ranges` (a test seam) accepts
//!   arbitrary — including adversarial and degenerate — splits, and
//!   every split must reproduce the single-shard result byte for byte.
//! * **Exact thread grid** — the paper-relevant thread counts
//!   {1, 2, 3, 8} pinned explicitly (the proptests draw thread counts
//!   randomly, which in principle could miss a specific count).
//! * **Labeling merge under adversarial similarities** — the chunked
//!   fan-out of the batch labeling pass must agree with the
//!   single-threaded pass even when the similarity measure is engineered
//!   to sit exactly on the θ decision boundary, to drive every point to
//!   the outlier path, or to saturate at 1.0 — the regimes where a
//!   merge-order bug would surface as a miscounted outlier or cluster
//!   total.
//! * **Item-indexed labeling is exact** — the postings-index scorer the
//!   batch labeler uses for item-set measures must reproduce the
//!   brute-force scan (the same measure with its item capability
//!   hidden) label for label, across θ, id layouts and thread counts.
//! * **Item-indexed neighbors are exact** — the neighbor scan that
//!   tests only the sample pairs sharing an item must reproduce the
//!   brute-force graph (the same reference measure) edge for edge, on
//!   the serial and the sharded builder alike.
//! * **Item-indexed updates are exact** — the online update scores its
//!   arrivals through the batch labeler's indexed scan, so every update
//!   outcome, state digest and update-WAL byte must equal the
//!   brute-force run's, re-merges included.
//! * **The stream labeler is the per-record checked scan** — the
//!   resilient stream labeler scores each round through the batch pass,
//!   and must reproduce a plain loop of `label_point_checked` calls:
//!   assignments, quarantined lines and reasons, counts, report
//!   counters and the final checkpoint, for every thread count.
//!
//! CI runs this file in release mode (`kernel-equivalence` job) so the
//! optimizer cannot hide a divergence that debug builds mask.

use proptest::collection;
use proptest::prelude::*;
use rock::artifact::ModelArtifact;
use rock::engine::model::ModelFit;
use rock::governor::RunGovernor;
use rock::labeling::{Labeler, Labeling};
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::similarity::{Jaccard, PointsWith, Similarity};
use rock::{Clustering, IncrementalRockState, RockError, RunReport, StalenessPolicy};
use rock_data::resilient::{label_stream_resilient, Checkpoint, ResilientConfig, RetryPolicy};
use std::io::BufReader;
use std::ops::Range;

/// The pinned thread grid from the acceptance criteria.
const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// An ungoverned [`Labeler::label_all`] pass on `threads` workers.
fn label_all<S: Similarity<Transaction> + Sync>(
    labeler: &Labeler<Transaction>,
    data: &[Transaction],
    sim: &S,
    threads: usize,
) -> Labeling {
    labeler
        .label_all(data, sim, threads, &RunGovernor::unlimited())
        .unwrap()
}

/// A random basket set over a small item universe so θ-neighborhoods
/// are non-trivial (same shape as `tests/parallel_determinism.rs`).
fn baskets(max_n: usize) -> impl Strategy<Value = Vec<Transaction>> {
    collection::vec(collection::vec(0u32..60, 1..6), 8..max_n)
        .prop_map(|items| items.into_iter().map(Transaction::new).collect())
}

/// Materialises fractional cut points into a full contiguous partition
/// of `0..n`, optionally salted with empty ranges — the adversarial
/// splits a balancer would never produce but the kernel must tolerate.
fn ranges_from_cuts(n: usize, cuts: &[f64], salt_empties: bool) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts
        .iter()
        .map(|f| ((f * n as f64) as usize).min(n))
        .collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    let mut shards = Vec::new();
    if salt_empties {
        shards.push(0..0);
    }
    for w in bounds.windows(2) {
        shards.push(w[0]..w[1]); // empty when consecutive cuts collide
        if salt_empties {
            shards.push(w[1]..w[1]);
        }
    }
    shards
}

/// A similarity engineered to hit the labeling decision boundaries:
/// depending on the item sums it returns exactly θ (a neighbor by the
/// paper's ≥ θ rule), just under θ (not a neighbor), 0, or 1. The value
/// is a pure function of the two points, so sequential and parallel
/// labelers see identical faults in any evaluation order.
struct BoundarySim {
    theta: f64,
}

impl Similarity<Transaction> for BoundarySim {
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        let key = a
            .items()
            .iter()
            .chain(b.items())
            .fold(0u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as u64));
        match key % 4 {
            0 => self.theta,
            1 => self.theta - 1e-9,
            2 => 0.0,
            _ => 1.0,
        }
    }
}

/// Jaccard with the [`Similarity::item_set`] capability hidden: every
/// labeler pass over it takes the brute-force path, so it is the
/// reference the item-indexed path must reproduce.
struct BruteJaccard;

impl Similarity<Transaction> for BruteJaccard {
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        Jaccard.similarity(a, b)
    }
}

/// The item [`MarkerNan`] answers NaN for.
const MARKER: u32 = 39;

/// Jaccard without the item capability that returns NaN for every pair
/// holding [`MARKER`]: the value is decided by the pair alone, so the
/// stream and its oracle see the same NaNs in any evaluation order.
struct MarkerNan;

impl Similarity<Transaction> for MarkerNan {
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        if a.items().contains(&MARKER) || b.items().contains(&MARKER) {
            f64::NAN
        } else {
            Jaccard.similarity(a, b)
        }
    }
}

/// One generated stream line, as the oracle reads it.
enum StreamLine {
    /// A basket record.
    Record(Transaction),
    /// A line that fails to parse, with the quarantine reason.
    Garbage(String),
    /// A blank or comment line.
    Skip,
}

/// Writes the stream lines drawn as `(kind, items)`: kinds 0..=6 a
/// record (items joined by spaces or commas, `,` alone for an empty
/// basket), 7 the record with an unparsable token appended, 8 a
/// comment, 9 a blank line. Returns the text and the oracle's view.
fn write_stream(drawn: &[(u8, Vec<u32>)]) -> (String, Vec<StreamLine>) {
    let mut text = String::new();
    let mut lines = Vec::new();
    for (i, (kind, items)) in drawn.iter().enumerate() {
        let sep = if i % 2 == 0 { " " } else { "," };
        let joined: Vec<String> = items.iter().map(u32::to_string).collect();
        // An empty basket is written as a lone separator, so it parses as
        // an empty record rather than a blank line.
        let record = match joined.join(sep) {
            empty if empty.is_empty() => ",".to_string(),
            record => record,
        };
        let (line, parsed) = match kind {
            0..=6 => (record, StreamLine::Record(Transaction::new(items.clone()))),
            7 => {
                let bad = format!("x{i}");
                let reason = format!("bad item token {bad:?}");
                (format!("{record} {bad}"), StreamLine::Garbage(reason))
            }
            8 => (format!("# comment {i}"), StreamLine::Skip),
            _ => (String::new(), StreamLine::Skip),
        };
        text.push_str(&line);
        text.push('\n');
        lines.push(parsed);
    }
    (text, lines)
}

/// What a stream pass must produce, computed by a plain loop of
/// `label_point_checked` calls: the assignments, the quarantined
/// `(line, reason)` pairs and the final checkpoint.
fn stream_oracle<S: Similarity<Transaction>>(
    labeler: &Labeler<Transaction>,
    lines: &[StreamLine],
    text: &str,
    sim: &S,
) -> (Labeling, Vec<(u64, String)>, Checkpoint) {
    let mut assignments = Vec::new();
    let mut quarantined = Vec::new();
    let mut checkpoint = Checkpoint::new(labeler.num_clusters());
    for (i, line) in lines.iter().enumerate() {
        let lineno = i as u64 + 1;
        match line {
            StreamLine::Record(t) => match labeler.label_point_checked(t, sim) {
                Ok(a) => assignments.push(a),
                Err(RockError::NonFiniteSimilarity { value }) => {
                    quarantined.push((lineno, format!("non-finite similarity {value}")));
                }
                Err(e) => panic!("unexpected labeling error: {e}"),
            },
            StreamLine::Garbage(reason) => quarantined.push((lineno, reason.clone())),
            StreamLine::Skip => checkpoint.records_skipped += 1,
        }
    }
    let mut cluster_counts = vec![0usize; labeler.num_clusters()];
    for c in assignments.iter().flatten() {
        cluster_counts[*c] += 1;
    }
    let num_outliers = assignments.iter().filter(|a| a.is_none()).count();
    checkpoint.byte_offset = text.len() as u64;
    checkpoint.lines_seen = lines.len() as u64;
    checkpoint.records_read = assignments.len() as u64;
    checkpoint.records_quarantined = quarantined.len() as u64;
    checkpoint.cluster_counts = cluster_counts.iter().map(|&c| c as u64).collect();
    checkpoint.outliers = num_outliers as u64;
    let labeling = Labeling {
        assignments,
        cluster_counts,
        num_outliers,
    };
    (labeling, quarantined, checkpoint)
}

/// Checks one measure's stream passes at threads 1, 2 and 8 against
/// [`stream_oracle`].
fn check_stream_against_oracle<S: Similarity<Transaction> + Sync>(
    labeler: &Labeler<Transaction>,
    drawn: &[(u8, Vec<u32>)],
    sim: &S,
    checkpoint_every: u64,
) -> Result<(), TestCaseError> {
    let (text, lines) = write_stream(drawn);
    let (labeling, quarantined, checkpoint) = stream_oracle(labeler, &lines, &text, sim);
    let config = ResilientConfig {
        retry: RetryPolicy::no_backoff(0),
        max_quarantine: usize::MAX,
        quarantine_detail: lines.len(),
        checkpoint_every,
    };
    for threads in [1, 2, 8] {
        let run = label_stream_resilient(
            BufReader::new(text.as_bytes()),
            labeler,
            sim,
            &config,
            None,
            |_| {},
            &RunGovernor::unlimited(),
            threads,
        )
        .unwrap();
        prop_assert_eq!(&run.labeling, &labeling, "threads = {}", threads);
        let got: Vec<(u64, String)> = run
            .report
            .quarantined
            .iter()
            .map(|q| (q.line, q.reason.clone()))
            .collect();
        prop_assert_eq!(&got, &quarantined, "threads = {}", threads);
        prop_assert_eq!(&run.checkpoint, &checkpoint, "threads = {}", threads);
        let report = &run.report;
        prop_assert_eq!(report.records_read, checkpoint.records_read);
        prop_assert_eq!(report.records_skipped, checkpoint.records_skipped);
        prop_assert_eq!(report.records_quarantined, checkpoint.records_quarantined);
        prop_assert_eq!(report.outliers, checkpoint.outliers);
        let written = lines.len() as u64 / checkpoint_every;
        prop_assert_eq!(report.checkpoints_written, written);
        prop_assert_eq!((report.transient_io_errors, report.io_retries), (0, 0));
    }
    Ok(())
}

/// Maps raw item draws `0..40` into one of three id layouts: small ids,
/// a compact range just below `u32::MAX` (a slot table with a high
/// base), or both mixed (too spread out for the table: brute force).
fn place_items(raw: &[u32], layout: usize) -> Transaction {
    Transaction::new(
        raw.iter()
            .map(|&x| match layout {
                0 => x,
                1 => u32::MAX - x,
                _ if x % 2 == 0 => x,
                _ => u32::MAX - x,
            })
            .collect(),
    )
}

/// θ grid of the differential test: the brute-force-only 0, the
/// smallest useful positive θ, a random one, and exact equality.
fn pick_theta(pick: usize, random: f64) -> f64 {
    [0.0, 1e-9, random, 1.0][pick % 4]
}

/// Baskets whose pairwise Jaccard values land exactly on 2/3
/// (`{0,1}` vs `{0,1,2}`), 3/4 and 0.8 (`{0,1,2,3}` vs `{0,1,2,3,4}`):
/// a θ equal to one of them separates the paper's `≥ θ` rule from `> θ`.
const BOUNDARY_BASKETS: [&[u32]; 4] = [&[0, 1], &[0, 1, 2], &[0, 1, 2, 3], &[0, 1, 2, 3, 4]];

/// A model artifact over `sample` (at least 6 points) at θ: clusters
/// `0..h` and `h..n` (h = ⌈n/2⌉) keep every member as a representative,
/// the first one its first member twice, and a third, one-point cluster
/// has an empty Lᵢ. The clusters are given in canonical order.
fn update_base(sample: &[Transaction], theta: f64) -> ModelArtifact {
    let n = sample.len() as u32;
    let h = n.div_ceil(2);
    let mut sets = vec![
        sample[..h as usize].to_vec(),
        sample[h as usize..].to_vec(),
        vec![],
    ];
    sets[0].push(sample[0].clone());
    let labeler = Labeler::from_sets(sets, theta, 0.4).unwrap();
    let fit = ModelFit {
        clustering: Clustering::new(vec![(0..h).collect(), (h..n).collect(), vec![n]], vec![]),
        dendrogram: None,
        report: RunReport::new(),
    };
    ModelArtifact::from_labeled("rock", &fit, &labeler, 1.0, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The item-indexed labeler equals brute force at every thread
    // count: random (possibly empty) baskets, an empty
    // Lᵢ, duplicated representatives, ids near u32::MAX, the θ grid, and
    // data both shorter and longer than one governed batch.
    #[test]
    fn indexed_labeling_matches_brute_force(
        sample_raw in collection::vec(collection::vec(0u32..40, 0..6), 2..30),
        query_raw in collection::vec(collection::vec(0u32..40, 0..6), 1..40),
        layout in 0usize..3,
        theta_pick in 0usize..4,
        theta_random in 0.05f64..0.95,
        long in any::<bool>(),
        extra in 1usize..300,
    ) {
        let sample: Vec<Transaction> =
            sample_raw.iter().map(|t| place_items(t, layout)).collect();
        let n = sample.len() as u32;
        // Clusters 0 and 1 split the sample, cluster 0 repeats its first
        // member, and cluster 2 is empty.
        let mut clusters = vec![(0..n / 2).collect::<Vec<u32>>(), (n / 2..n).collect(), vec![]];
        clusters[0].push(0);
        let labeler = Labeler::full(&sample, &clusters, pick_theta(theta_pick, theta_random), 0.4);
        let len = if long { Labeler::<Transaction>::GOVERNED_BATCH + extra } else { extra };
        let data: Vec<Transaction> = query_raw
            .iter()
            .map(|t| place_items(t, layout))
            .cycle()
            .take(len)
            .collect();

        let brute = label_all(&labeler, &data, &BruteJaccard, 1);
        for threads in THREAD_GRID {
            prop_assert_eq!(
                &label_all(&labeler, &data, &Jaccard, threads),
                &brute,
                "threads = {}", threads
            );
        }
    }

    // The online update through the item-indexed scan equals the
    // brute-force update outcome for outcome, digest for digest and WAL
    // byte for byte: random (possibly empty) baskets, the boundary
    // baskets in the pools and in the first batch, duplicated
    // representatives, an empty Lᵢ, capped pools, the three id layouts
    // (the mixed one takes the brute-force fallback), the θ grid, θ on a
    // pair's exact Jaccard value, and a policy that trips re-merges.
    #[test]
    fn indexed_update_matches_brute_force(
        sample_raw in collection::vec(collection::vec(0u32..40, 0..6), 2..24),
        batches in collection::vec(
            collection::vec(collection::vec(0u32..40, 0..6), 0..10),
            1..6,
        ),
        layout in 0usize..3,
        theta_pick in 0usize..6,
        theta_random in 0.05f64..0.95,
        max_pending in 1u64..6,
        rep_cap in 1usize..12,
    ) {
        let mut raw: Vec<Vec<u32>> = BOUNDARY_BASKETS.iter().map(|b| b.to_vec()).collect();
        raw.extend(sample_raw);
        let sample: Vec<Transaction> = raw.iter().map(|t| place_items(t, layout)).collect();
        let theta = match theta_pick {
            4 => 2.0 / 3.0,
            5 => 0.8,
            pick => pick_theta(pick, theta_random),
        };
        let artifact = update_base(&sample, theta);
        let policy = StalenessPolicy {
            max_pending,
            min_clusters: 1,
            max_cluster_fraction: 1.0,
            rep_cap,
            ..StalenessPolicy::default()
        };
        let open = || IncrementalRockState::<Transaction>::from_artifact(&artifact, policy).unwrap();
        let (mut indexed, mut brute) = (open(), open());
        let governor = RunGovernor::unlimited();
        for (b, batch) in batches.iter().enumerate() {
            let mut arrivals: Vec<Transaction> = batch.iter().map(|t| place_items(t, layout)).collect();
            if b == 0 {
                arrivals.extend(BOUNDARY_BASKETS.iter().map(|t| place_items(t, layout)));
            }
            let want = brute.update(&arrivals, &BruteJaccard, &governor).unwrap();
            prop_assert_eq!(indexed.update(&arrivals, &Jaccard, &governor).unwrap(), want, "batch {}", b);
            prop_assert_eq!(indexed.digest(), brute.digest(), "batch {}", b);
        }
        prop_assert_eq!(indexed.wal().as_bytes(), brute.wal().as_bytes());
    }

    // The resilient stream labeler equals a plain loop of
    // label_point_checked calls at every thread count, for Jaccard
    // (indexed for θ > 0), Jaccard with the capability hidden and a
    // measure that answers NaN for marker pairs: random (possibly empty,
    // repeated-item) baskets with garbage, comment and blank lines,
    // random clusters (some empty) drawn by Labeler::new, the θ grid
    // {0, 0.3, 0.5, 0.8}, and streams shorter and longer than one read
    // round.
    #[test]
    fn stream_labeling_matches_checked_point_loop(
        sample_raw in collection::vec(collection::vec(0u32..MARKER, 0..6), 2..48),
        cluster_of in collection::vec(0usize..4, 48),
        k in 1usize..5,
        fraction in 0.1f64..1.0,
        seed in any::<u64>(),
        drawn in collection::vec((0u8..10, collection::vec(0u32..=MARKER, 0..6)), 1..40),
        theta_pick in 0usize..4,
        long in any::<bool>(),
        extra in 1usize..800,
        checkpoint_every in 1u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let sample: Vec<Transaction> = sample_raw.into_iter().map(Transaction::new).collect();
        let mut clusters = vec![Vec::new(); k];
        for (i, &c) in cluster_of.iter().take(sample.len()).enumerate() {
            clusters[c % k].push(i as u32);
        }
        let theta = [0.0, 0.3, 0.5, 0.8][theta_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let labeler = Labeler::new(&sample, &clusters, fraction, theta, 0.4, &mut rng).unwrap();
        let len = if long { 4096 + extra } else { extra };
        let drawn: Vec<(u8, Vec<u32>)> = drawn.iter().cycle().take(len).cloned().collect();
        check_stream_against_oracle(&labeler, &drawn, &Jaccard, checkpoint_every)?;
        check_stream_against_oracle(&labeler, &drawn, &BruteJaccard, checkpoint_every)?;
        check_stream_against_oracle(&labeler, &drawn, &MarkerNan, checkpoint_every)?;
    }

    // The item-indexed neighbor graph equals brute force on both
    // builders and every thread count: random (possibly empty or
    // duplicated) baskets, samples on both sides of the parallel cutoff,
    // the three id layouts (the mixed one is too spread out for the
    // slot table and takes the brute-force fallback), the θ grid, and θ
    // sitting exactly on a pair's Jaccard value.
    #[test]
    fn indexed_neighbors_match_brute_force(
        sample_raw in collection::vec(collection::vec(0u32..40, 0..6), 0..400),
        dups in 0usize..20,
        layout in 0usize..3,
        theta_pick in 0usize..6,
        theta_random in 0.05f64..0.95,
    ) {
        let mut raw: Vec<Vec<u32>> = BOUNDARY_BASKETS.iter().map(|b| b.to_vec()).collect();
        raw.extend(sample_raw.iter().cloned());
        let copies: Vec<Vec<u32>> = raw.iter().take(dups).cloned().collect();
        raw.extend(copies);
        let sample: Vec<Transaction> = raw.iter().map(|t| place_items(t, layout)).collect();
        let theta = match theta_pick {
            4 => 2.0 / 3.0,
            5 => 0.8,
            pick => pick_theta(pick, theta_random),
        };

        let brute = NeighborGraph::build(&PointsWith::new(&sample, BruteJaccard), theta);
        let indexed = PointsWith::new(&sample, Jaccard);
        prop_assert_eq!(&NeighborGraph::build(&indexed, theta), &brute);
        for threads in THREAD_GRID {
            prop_assert_eq!(
                &NeighborGraph::build_parallel(&indexed, theta, threads),
                &brute,
                "threads = {}", threads
            );
        }
    }

    // Any contiguous partition of the rows — balanced, lopsided,
    // riddled with empty shards — yields the single-shard link matrix.
    #[test]
    fn link_kernel_is_shard_boundary_invariant(
        ts in baskets(120),
        theta in 0.1f64..0.9,
        cuts in collection::vec(0.0f64..1.0, 0..6),
        salt_empties in any::<bool>(),
    ) {
        let graph = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta);
        let reference = LinkMatrix::compute_sparse(&graph, 1);
        let shards = ranges_from_cuts(graph.len(), &cuts, salt_empties);
        prop_assert_eq!(
            &LinkMatrix::compute_sparse_ranges(&graph, &shards),
            &reference
        );
    }

    // The labeling merge agrees with the sequential fold under a
    // boundary-adversarial similarity, at every pinned thread count,
    // both below and above the parallel cost cutoff.
    #[test]
    fn labeling_merge_matches_sequential_under_adversarial_sims(
        ts in baskets(60),
        repeat in 1usize..30,
        theta in 0.1f64..0.9,
    ) {
        let mid = ts.len() / 2;
        let clusters = vec![
            (0..mid as u32).collect::<Vec<_>>(),
            (mid as u32..ts.len() as u32).collect::<Vec<_>>(),
        ];
        let labeler = Labeler::full(&ts, &clusters, theta, 1.0 / 3.0);
        let sim = BoundarySim { theta };
        let data: Vec<Transaction> = ts
            .iter()
            .cycle()
            .take(ts.len() * repeat)
            .cloned()
            .collect();
        let serial = label_all(&labeler, &data, &sim, 1);
        for threads in THREAD_GRID {
            prop_assert_eq!(
                &label_all(&labeler, &data, &sim, threads),
                &serial,
                "threads = {}", threads
            );
        }
    }
}

/// The full pinned thread grid, checked exhaustively on one fixed input
/// per kernel: every count must reproduce the single-thread result.
#[test]
fn pinned_thread_grid_is_bit_identical() {
    // 180 baskets drawn from three overlapping item bands, so the graph
    // has real cluster structure and non-uniform row costs.
    let ts: Vec<Transaction> = (0..180u32)
        .map(|i| {
            let base = (i % 3) * 15;
            Transaction::new(vec![base + i % 7, base + (i / 3) % 9, base + (i / 5) % 11])
        })
        .collect();
    let theta = 0.3;

    let points = PointsWith::new(&ts, Jaccard);
    let graph = NeighborGraph::build(&points, theta);
    let links = LinkMatrix::compute_sparse(&graph, 1);
    let labeler = Labeler::full(
        &ts,
        &[(0..90u32).collect::<Vec<_>>(), (90..180u32).collect()],
        theta,
        1.0 / 3.0,
    );
    let labels = label_all(&labeler, &ts, &Jaccard, 1);

    for threads in THREAD_GRID {
        assert_eq!(
            NeighborGraph::build_parallel(&points, theta, threads),
            graph,
            "neighbors diverged at {threads} threads"
        );
        assert_eq!(
            LinkMatrix::compute_sparse(&graph, threads),
            links,
            "sparse links diverged at {threads} threads"
        );
        assert_eq!(
            LinkMatrix::compute_dense(&graph, threads),
            links,
            "dense links diverged at {threads} threads"
        );
        assert_eq!(
            label_all(&labeler, &ts, &Jaccard, threads),
            labels,
            "labeling diverged at {threads} threads"
        );
    }
}

/// Degenerate splits on a degenerate graph: no rows, one row, and a
/// graph with isolated points only.
#[test]
fn degenerate_graphs_accept_degenerate_splits() {
    let empty = NeighborGraph::build(&PointsWith::new(&Vec::<Transaction>::new(), Jaccard), 0.5);
    assert_eq!(
        LinkMatrix::compute_sparse_ranges(&empty, &[]),
        LinkMatrix::compute_sparse(&empty, 1)
    );

    let singleton = vec![Transaction::from([1, 2, 3])];
    let one = NeighborGraph::build(&PointsWith::new(&singleton, Jaccard), 0.5);
    let single: Vec<Range<usize>> = std::iter::once(0..1).collect();
    for shards in [single, vec![0..0, 0..1, 1..1]] {
        assert_eq!(
            LinkMatrix::compute_sparse_ranges(&one, &shards),
            LinkMatrix::compute_sparse(&one, 1),
            "shards = {shards:?}"
        );
    }
}
