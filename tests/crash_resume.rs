//! Crash/resume acceptance matrix for the governed clustering engine.
//!
//! The contract under test (see DESIGN.md, "Failure model"):
//!
//! 1. a [`rock::rock::Rock::cluster_wal`] run killed at *any* merge index
//!    resumes from its write-ahead log to a final clustering, merge trace
//!    and dendrogram bit-identical to an uninterrupted run, for any
//!    thread count;
//! 2. a WAL truncated at an *arbitrary* byte (a torn write) either
//!    resumes bit-identically or fails with a typed
//!    [`rock::RockError::WalCorrupt`] / `WalMismatch` — never a panic;
//! 3. snapshot-bearing WALs resume without the original data;
//! 4. cancellation and deadlines are observed within one merge batch;
//! 5. a tripped memory budget degrades per the configured policy instead
//!    of failing, and the outcome is recorded in the run report; a
//!    resume charges the links it recomputes like the journaled fit.

use proptest::prelude::*;
use rock::governor::{CancellationToken, DegradationPolicy, Phase, RunGovernor, TripReason};
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::{Jaccard, PointsWith};
use rock::wal::{parse_wal, MergeWal};
use rock::{Dendrogram, RockError};
use std::time::Duration;

/// Three well-separated basket clusters over disjoint item ranges;
/// transactions are deterministic 3-subsets of a 7-item universe.
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

fn engine(threads: usize, governor: RunGovernor) -> Rock {
    Rock::builder()
        .theta(0.4)
        .clusters(3)
        .threads(threads)
        .seed(11)
        .governor(governor)
        .build()
        .unwrap()
}

/// The full bit-identity check between a resumed and a baseline run.
fn assert_bit_identical(resumed: &rock::RockRun, baseline: &rock::RockRun) {
    assert_eq!(resumed.clustering, baseline.clustering);
    assert_eq!(resumed.merges, baseline.merges);
    assert_eq!(resumed.initial_points, baseline.initial_points);
    let d_resumed = Dendrogram::from_run(resumed);
    let d_baseline = Dendrogram::from_run(baseline);
    assert_eq!(d_resumed.is_some(), d_baseline.is_some());
    if let (Some(dr), Some(db)) = (d_resumed, d_baseline) {
        for k in db.min_clusters()..=db.min_clusters() + 2 {
            assert_eq!(dr.cut(k), db.cut(k), "dendrogram cut at k={k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Fault matrix: kill at merge `k` (including 0 and past-the-end),
    // across thread counts 1/2/8 — interrupted + resumed ≡ uninterrupted.
    #[test]
    fn kill_at_any_merge_then_resume_is_bit_identical(
        k in 0u64..60,
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let data = three_clusters(18);
        let baseline = engine(threads, RunGovernor::unlimited()).cluster(&data, &Jaccard).unwrap();
        let killer = engine(threads, RunGovernor::unlimited().with_kill_at(Phase::Merge, k));
        let mut wal = MergeWal::new();
        match killer.cluster_wal(&data, &Jaccard, &mut wal) {
            // Kill point past the end of the merge trace: the run finishes.
            Ok(run) => assert_bit_identical(&run, &baseline),
            Err(RockError::Interrupted { phase, resumable, .. }) => {
                prop_assert_eq!(phase, Phase::Merge);
                prop_assert!(resumable);
                // The WAL holds exactly the merges performed before the kill.
                prop_assert_eq!(parse_wal(wal.as_bytes()).unwrap().num_merges() as u64, k);
                let resumed = engine(threads, RunGovernor::unlimited())
                    .resume_cluster(&data, &Jaccard, wal.as_bytes(), None)
                    .unwrap();
                assert_bit_identical(&resumed, &baseline);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    // A WAL truncated at an arbitrary byte — simulating a torn write
    // during a crash — either resumes bit-identically (the torn tail is
    // dropped, the surviving prefix replayed) or fails with a typed
    // error. It never panics.
    #[test]
    fn wal_truncated_at_any_byte_resumes_or_fails_cleanly(cut in 0usize..100_000) {
        let data = three_clusters(14);
        let rock = engine(2, RunGovernor::unlimited());
        let mut wal = MergeWal::new();
        let baseline = rock.cluster_wal(&data, &Jaccard, &mut wal).unwrap();
        let bytes = wal.as_bytes();
        let cut = cut % (bytes.len() + 1);
        let torn = &bytes[..cut];
        match rock.resume_cluster(&data, &Jaccard, torn, None) {
            Ok(resumed) => assert_bit_identical(&resumed, &baseline),
            Err(RockError::WalCorrupt { offset, .. }) => {
                // Structural damage is only ever reported inside the
                // surviving prefix (bad magic / torn Begin record).
                prop_assert!(offset <= cut as u64);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

/// A resume can itself be killed; its continuation log (`wal_out`)
/// re-journals history so the chain resumes again — still bit-identical.
#[test]
fn chained_interruptions_resume_through_continuation_logs() {
    let data = three_clusters(18);
    let baseline = engine(2, RunGovernor::unlimited()).cluster(&data, &Jaccard).unwrap();

    let mut wal1 = MergeWal::new();
    let err = engine(2, RunGovernor::unlimited().with_kill_at(Phase::Merge, 5))
        .cluster_wal(&data, &Jaccard, &mut wal1)
        .unwrap_err();
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));

    let mut wal2 = MergeWal::new();
    let err = engine(2, RunGovernor::unlimited().with_kill_at(Phase::Merge, 12))
        .resume_cluster(&data, &Jaccard, wal1.as_bytes(), Some(&mut wal2))
        .unwrap_err();
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));
    assert_eq!(parse_wal(wal2.as_bytes()).unwrap().num_merges(), 12);

    let resumed = engine(2, RunGovernor::unlimited())
        .resume_cluster(&data, &Jaccard, wal2.as_bytes(), None)
        .unwrap();
    assert_bit_identical(&resumed, &baseline);

    // The §3.3 criterion profile (E_l at every cut) over the resumed
    // dendrogram matches the uninterrupted one bit for bit.
    let graph = rock::NeighborGraph::build(&rock::similarity::PointsWith::new(&data, Jaccard), 0.4, 1);
    let links = rock::LinkMatrix::compute_sparse(&graph, 1);
    let goodness = rock::Goodness::new(0.4, rock::ConstantF(1.0), rock::GoodnessKind::Normalized);
    let d_resumed = Dendrogram::from_run(&resumed).expect("no weeding");
    let d_baseline = Dendrogram::from_run(&baseline).expect("no weeding");
    assert_eq!(
        d_resumed.criterion_profile(&links, &goodness),
        d_baseline.criterion_profile(&links, &goodness)
    );
}

/// Snapshots make the WAL self-contained: resume restores the latest
/// snapshot and needs neither the points nor a link recomputation.
#[test]
fn snapshot_wal_resumes_without_the_original_data() {
    let data = three_clusters(18);
    let baseline = engine(2, RunGovernor::unlimited()).cluster(&data, &Jaccard).unwrap();

    let mut wal = MergeWal::new().with_snapshot_every(4);
    let err = engine(2, RunGovernor::unlimited().with_kill_at(Phase::Merge, 13))
        .cluster_wal(&data, &Jaccard, &mut wal)
        .unwrap_err();
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));
    assert!(parse_wal(wal.as_bytes()).unwrap().has_snapshot());

    let resumed = engine(2, RunGovernor::unlimited())
        .resume_cluster_snapshot(wal.as_bytes(), None)
        .unwrap();
    assert_bit_identical(&resumed, &baseline);
}

/// Acceptance: cancellation and deadlines are observed within one merge
/// batch. A kill at merge `k` leaves exactly `k` merges in the log; an
/// expired deadline or a fired token stops before the first merge.
#[test]
fn interruption_granularity_is_one_merge_batch() {
    let data = three_clusters(18);
    for k in [0u64, 3, 9] {
        let mut wal = MergeWal::new();
        let err = engine(1, RunGovernor::unlimited().with_kill_at(Phase::Merge, k))
            .cluster_wal(&data, &Jaccard, &mut wal)
            .unwrap_err();
        assert!(matches!(err, RockError::Interrupted { .. }));
        assert_eq!(parse_wal(wal.as_bytes()).unwrap().num_merges() as u64, k);
    }

    let mut wal = MergeWal::new();
    let err = Rock::builder()
        .theta(0.4)
        .clusters(3)
        .governor(RunGovernor::unlimited().with_time_budget(Duration::ZERO))
        .build()
        .unwrap()
        .cluster_wal(&data, &Jaccard, &mut wal)
        .unwrap_err();
    assert!(matches!(
        err,
        RockError::Interrupted {
            reason: TripReason::DeadlineExceeded,
            ..
        }
    ));
    assert!(wal.is_empty());

    let token = CancellationToken::new();
    token.cancel();
    let mut wal = MergeWal::new();
    let err = Rock::builder()
        .theta(0.4)
        .clusters(3)
        .governor(RunGovernor::unlimited().with_cancel_token(token))
        .build()
        .unwrap()
        .cluster_wal(&data, &Jaccard, &mut wal)
        .unwrap_err();
    assert!(matches!(
        err,
        RockError::Interrupted {
            reason: TripReason::Cancelled,
            ..
        }
    ));
    assert!(wal.is_empty());
}

/// A tripped memory budget follows the configured degradation policy:
/// `Fail` surfaces the trip, `Components` finishes via the θ-neighbor
/// connected-components fast path with the note recorded in the report.
#[test]
fn memory_trip_degrades_per_policy() {
    let data = three_clusters(18);

    let fail = Rock::builder()
        .theta(0.4)
        .clusters(3)
        .sample_size(30)
        .seed(5)
        .governor(RunGovernor::unlimited().with_memory_budget(1))
        .build()
        .unwrap();
    let err = fail.run(&data, &Jaccard).unwrap_err();
    assert!(matches!(
        err,
        RockError::Interrupted {
            reason: TripReason::MemoryBudgetExceeded,
            resumable: false,
            ..
        }
    ));

    let degrade = Rock::builder()
        .theta(0.4)
        .clusters(3)
        .sample_size(30)
        .seed(5)
        .governor(RunGovernor::unlimited().with_memory_budget(1))
        .degradation(DegradationPolicy::Components { min_cluster_size: 2 })
        .build()
        .unwrap();
    let (result, report) = degrade.run(&data, &Jaccard).unwrap();
    let note = report.degraded.as_ref().expect("degradation note recorded");
    assert_eq!(note.reason, TripReason::MemoryBudgetExceeded);
    assert!(report.degraded());
    assert!(report.to_string().contains("degraded"));
    // The fast path still separates the three disjoint item ranges.
    assert!(result.labeling.assignments.iter().any(|a| a.is_some()));
    for (i, t) in data.iter().enumerate() {
        if let Some(c) = result.labeling.assignments[i] {
            for (j, u) in data.iter().enumerate() {
                if let Some(d) = result.labeling.assignments[j] {
                    let same_range = t.items()[0] / 100 == u.items()[0] / 100;
                    if c == d {
                        assert!(same_range, "mixed clusters across item ranges");
                    }
                }
            }
        }
    }
}

// A resume without a snapshot recomputes the links, and charges their
// bytes like the journaled fit does: under a budget that holds the
// neighbor graph but only half the links, both the fit and the resume
// of a run killed at merge 5 stop with MemoryBudgetExceeded. Without a
// budget the resume stays bit-identical.
#[test]
fn resume_charges_the_recomputed_links() {
    let data = three_clusters(35);
    let graph = NeighborGraph::build(&PointsWith::new(&data, &Jaccard), 0.4, 1);
    let graph_bytes = graph.memory_bytes() as u64;
    let link_bytes = LinkMatrix::compute_auto(&graph, 1).memory_bytes() as u64;
    let capped = || RunGovernor::unlimited().with_memory_budget(graph_bytes + link_bytes / 2);
    let over_budget = |outcome: Result<rock::RockRun, RockError>| {
        matches!(
            outcome,
            Err(RockError::Interrupted {
                reason: TripReason::MemoryBudgetExceeded,
                ..
            })
        )
    };

    let unlimited = || engine(1, RunGovernor::unlimited());
    let baseline = unlimited().cluster(&data, &Jaccard).unwrap();
    let mut wal = MergeWal::new();
    let killer = engine(1, RunGovernor::unlimited().with_kill_at(Phase::Merge, 5));
    assert!(killer.cluster_wal(&data, &Jaccard, &mut wal).is_err());
    assert_eq!(parse_wal(wal.as_bytes()).unwrap().num_merges(), 5);

    let fit = engine(1, capped()).cluster_wal(&data, &Jaccard, &mut MergeWal::new());
    assert!(over_budget(fit));
    let resume = engine(1, capped()).resume_cluster(&data, &Jaccard, wal.as_bytes(), None);
    assert!(over_budget(resume));

    let resumed = unlimited()
        .resume_cluster(&data, &Jaccard, wal.as_bytes(), None)
        .unwrap();
    assert_bit_identical(&resumed, &baseline);
}

/// `(phase, reason, resumable)` of an interruption, `None` for `Ok`.
type TripPin = Option<(Phase, TripReason, bool)>;

fn trip_pin<T>(outcome: Result<T, RockError>) -> TripPin {
    match outcome {
        Ok(_) => None,
        Err(RockError::Interrupted {
            phase,
            reason,
            resumable,
        }) => Some((phase, reason, resumable)),
        Err(e) => panic!("expected Ok or an interruption, got {e}"),
    }
}

/// Where every public driver reports a tripped 1-byte memory budget and
/// a zero deadline. A resume checks its budgets once on entry, after
/// charging the link matrix it rebuilt; the snapshot resume rebuilds
/// none and charges nothing, so it finishes under a memory budget.
/// Shards charge their own memory meters, never the parent's.
#[test]
fn every_driver_reports_budget_trips_at_a_pinned_phase() {
    let data = three_clusters(20);
    let driver = |governor: RunGovernor| {
        Rock::builder()
            .theta(0.4)
            .clusters(3)
            .sample_size(40)
            .seed(5)
            .governor(governor)
            .build()
            .unwrap()
    };
    let mut wal = MergeWal::new().with_snapshot_every(3);
    let killed = driver(RunGovernor::unlimited().with_kill_at(Phase::Merge, 5))
        .cluster_wal(&data, &Jaccard, &mut wal);
    assert!(matches!(killed, Err(RockError::Interrupted { resumable: true, .. })));
    let bytes = wal.as_bytes();
    assert!(parse_wal(bytes).unwrap().has_snapshot());

    let drivers = [
        "cluster",
        "cluster_wal",
        "run",
        "resume_cluster",
        "resume_cluster + wal_out",
        "resume_cluster_snapshot",
        "shard_supervisor",
    ];
    let pins = |governor: fn() -> RunGovernor| -> [TripPin; 7] {
        // A fresh driver per call: clones of one governor share its
        // clock and memory meter.
        let rock = || driver(governor());
        [
            trip_pin(rock().cluster(&data, &Jaccard)),
            trip_pin(rock().cluster_wal(&data, &Jaccard, &mut MergeWal::new())),
            trip_pin(rock().run(&data, &Jaccard)),
            trip_pin(rock().resume_cluster(&data, &Jaccard, bytes, None)),
            trip_pin(rock().resume_cluster(&data, &Jaccard, bytes, Some(&mut MergeWal::new()))),
            trip_pin(rock().resume_cluster_snapshot(bytes, None)),
            trip_pin(
                rock()
                    .shard_supervisor(rock::ShardConfig::new(2))
                    .unwrap()
                    .run(&data, &Jaccard),
            ),
        ]
    };
    let mem = |phase| Some((phase, TripReason::MemoryBudgetExceeded, false));
    let late = |phase| Some((phase, TripReason::DeadlineExceeded, false));
    let table = [
        (
            "1-byte memory budget",
            pins(|| RunGovernor::unlimited().with_memory_budget(1)),
            [
                mem(Phase::Neighbors),
                mem(Phase::Neighbors),
                mem(Phase::Links),
                mem(Phase::Merge),
                Some((Phase::Merge, TripReason::MemoryBudgetExceeded, true)),
                None,
                None,
            ],
        ),
        (
            "zero deadline",
            pins(|| RunGovernor::unlimited().with_time_budget(Duration::ZERO)),
            [
                late(Phase::Neighbors),
                late(Phase::Neighbors),
                late(Phase::Sample),
                late(Phase::Neighbors),
                late(Phase::Neighbors),
                late(Phase::Merge),
                late(Phase::Merge),
            ],
        ),
    ];
    for (governor, got, want) in table {
        for ((name, got), want) in drivers.iter().zip(got).zip(want) {
            assert_eq!(got, want, "{name} under a {governor}");
        }
    }
}
