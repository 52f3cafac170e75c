//! Chaos acceptance matrix for the fault-isolated shard-and-merge
//! supervisor (DESIGN.md §12).
//!
//! The contract under test:
//!
//! 1. `shards == 1` is bit-identical to the unsharded journaled pipeline
//!    ([`rock::rock::Rock::cluster_wal`]) at every thread count;
//! 2. for *any* deterministic fault schedule (crash-at-merge-k, hang,
//!    memory trip, torn shard WAL — at any shard × retry round), the run
//!    terminates with either the full result (faults healed by
//!    retry/resume, bit-identical to the fault-free run) or a typed
//!    degraded result whose surviving clustering is bit-identical to
//!    running only the surviving shards from scratch, with every
//!    excluded point listed in the degradation note — never a panic, a
//!    hang or a silently wrong clustering;
//! 3. a poisoned (NaN-producing) shard is quarantined immediately —
//!    deterministic corruption is never retried;
//! 4. an exhausted coarse-merge ladder degrades to the concatenation of
//!    shard clusters, recorded under the sentinel shard index;
//! 5. a cancelled parent governor aborts the whole run with a typed
//!    error — quarantine never masks a real cancellation.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use rock::governor::{CancellationToken, Phase, RunGovernor, TripReason};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::rock_data::{
    generate_baskets, poison_range, PoisonedSimilarity, ShardFaultSchedule, SyntheticBasketSpec,
};
use rock::similarity::Jaccard;
use rock::wal::MergeWal;
use rock::{RockError, ShardConfig, ShardedRun};
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

/// A shard config with a loose coarse θ (representative-set link
/// densities concentrate well below raw Jaccard values).
fn shard_config(shards: usize) -> ShardConfig {
    ShardConfig {
        merge_theta: Some(0.2),
        ..ShardConfig::new(shards)
    }
}

/// Surviving output must match: same clustering, same surviving shards
/// (by index, range and shard-local clustering), same excluded points.
/// Attempt counts and note wording legitimately differ between a
/// faulted run and the exclusion oracle.
fn assert_survivors_identical(faulted: &ShardedRun, oracle: &ShardedRun) {
    assert_eq!(faulted.clustering, oracle.clustering);
    assert_eq!(faulted.shard_runs.len(), oracle.shard_runs.len());
    for (f, o) in faulted.shard_runs.iter().zip(&oracle.shard_runs) {
        assert_eq!(f.shard, o.shard);
        assert_eq!(f.range, o.range);
        assert_eq!(f.run.clustering, o.run.clustering);
        assert_eq!(f.run.merges, o.run.merges);
    }
    assert_eq!(faulted.excluded_points(), oracle.excluded_points());
}

#[test]
fn one_shard_is_bit_identical_to_unsharded_wal_run_across_threads() {
    let data = three_clusters(18);
    for threads in [1usize, 2, 8] {
        let rock = engine(threads, RunGovernor::unlimited());
        let mut wal = MergeWal::new();
        let baseline = rock.cluster_wal(&data, &Jaccard, &mut wal).unwrap();
        let sharded = rock
            .shard_supervisor(shard_config(1))
            .and_then(|s| s.run(&data, &Jaccard))
            .unwrap();
        assert_eq!(sharded.clustering, baseline.clustering, "threads={threads}");
        assert_eq!(sharded.shard_runs.len(), 1);
        assert_eq!(sharded.shard_runs[0].run.merges, baseline.merges);
        assert_eq!(sharded.shard_runs[0].attempts, 1);
        assert_eq!(sharded.report.shard_count, Some(1));
        assert!(sharded.report.shard_notes.is_empty());
        assert!(sharded.excluded_points().is_empty());
    }
}

#[test]
fn clean_multi_shard_run_reassembles_split_clusters() {
    // Two shards, each holding one-and-a-half natural clusters: the
    // middle cluster is split across the shard boundary and must be
    // reassembled by the coarse representative-level pass.
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let run = rock
        .shard_supervisor(shard_config(2))
        .and_then(|s| s.run(&data, &Jaccard))
        .unwrap();
    assert!(run.report.shard_notes.is_empty());
    assert_eq!(run.report.shard_count, Some(2));
    // Every point lands in exactly one cluster or the outlier list.
    let assigned: usize = run.clustering.clusters.iter().map(Vec::len).sum::<usize>()
        + run.clustering.outliers.len();
    assert_eq!(assigned, data.len());
    // The natural 3-way partition over disjoint item ranges survives:
    // no final cluster mixes item universes.
    for cluster in &run.clustering.clusters {
        let universes: std::collections::BTreeSet<u32> = cluster
            .iter()
            .flat_map(|&p| data[p as usize].items().iter().map(|&it| it / 100))
            .collect();
        assert_eq!(universes.len(), 1, "cluster mixes item universes");
    }
    // The split middle cluster was reassembled, so exactly the three
    // natural clusters remain.
    assert_eq!(run.clustering.clusters.len(), 3);
}

#[test]
fn shard_count_validation_is_typed() {
    let rock = engine(1, RunGovernor::unlimited());
    assert_eq!(
        rock.shard_supervisor(ShardConfig::new(0)).err(),
        Some(RockError::InvalidShardCount(0))
    );
    let bad_frac = ShardConfig {
        representative_fraction: 0.0,
        ..ShardConfig::new(2)
    };
    assert!(matches!(
        rock.shard_supervisor(bad_frac).err(),
        Some(RockError::InvalidLabelingFraction(_))
    ));
    let bad_theta = ShardConfig {
        merge_theta: Some(1.5),
        ..ShardConfig::new(2)
    };
    assert!(matches!(
        rock.shard_supervisor(bad_theta).err(),
        Some(RockError::InvalidTheta(_))
    ));
}

#[test]
fn poisoned_shard_is_quarantined_immediately_with_all_points_listed() {
    let mut data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let supervisor = rock.shard_supervisor(shard_config(3)).unwrap();
    let ranges = rock::shard_ranges(data.len(), 3);
    poison_range(&mut data, ranges[1].clone(), 9_999);
    let sim = PoisonedSimilarity { marker: 9_999 };

    let run = supervisor.run(&data, &sim).unwrap();
    assert_eq!(run.report.shard_notes.len(), 1);
    let note = &run.report.shard_notes[0];
    assert_eq!(note.shard, 1);
    // Deterministic corruption is never retried: one attempt, done.
    assert_eq!(note.attempts, 1);
    assert!(note.reason.contains("non-finite"), "reason: {}", note.reason);
    let expected: Vec<u32> = ranges[1].clone().map(|i| i as u32).collect();
    assert_eq!(note.points, expected);
    assert_eq!(run.excluded_points(), expected);
    assert!(run.report.degraded());

    // Survivors are bit-identical to running without the poisoned shard.
    let oracle = supervisor.run_excluding(&data, &sim, &[1]).unwrap();
    assert_survivors_identical(&run, &oracle);
}

#[test]
fn hang_and_memory_trip_ladders_exhaust_into_quarantine() {
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let supervisor = rock.shard_supervisor(shard_config(3)).unwrap();

    // Hang every attempt of shard 0: the deadline kill fires at the
    // first checkpoint of each of the 3 attempts.
    let hangs = ShardFaultSchedule::new().hang(0, 0).hang(0, 1).hang(0, 2);
    let run = supervisor.run_with_plan(&data, &Jaccard, &hangs).unwrap();
    assert_eq!(run.report.shard_notes.len(), 1);
    assert_eq!(run.report.shard_notes[0].shard, 0);
    assert_eq!(run.report.shard_notes[0].attempts, 3);
    assert!(
        run.report.shard_notes[0].reason.contains("deadline"),
        "reason: {}",
        run.report.shard_notes[0].reason
    );
    let oracle = supervisor.run_excluding(&data, &Jaccard, &[0]).unwrap();
    assert_survivors_identical(&run, &oracle);

    // Trip the memory budget on every attempt of shard 2.
    let trips = ShardFaultSchedule::new()
        .trip_memory(2, 0)
        .trip_memory(2, 1)
        .trip_memory(2, 2);
    let run = supervisor.run_with_plan(&data, &Jaccard, &trips).unwrap();
    assert_eq!(run.report.shard_notes.len(), 1);
    assert_eq!(run.report.shard_notes[0].shard, 2);
    assert!(
        run.report.shard_notes[0].reason.contains("memory"),
        "reason: {}",
        run.report.shard_notes[0].reason
    );
    let oracle = supervisor.run_excluding(&data, &Jaccard, &[2]).unwrap();
    assert_survivors_identical(&run, &oracle);
}

#[test]
fn crash_then_clean_retry_heals_to_the_fault_free_result() {
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let supervisor = rock.shard_supervisor(shard_config(3)).unwrap();
    let clean = supervisor.run(&data, &Jaccard).unwrap();

    // Crash shard 1 after 2 merges on attempt 0 only: attempt 1 resumes
    // from the carried shard WAL and completes bit-identically.
    let schedule = ShardFaultSchedule::new().crash_at_merge(1, 0, 2);
    let healed = supervisor
        .run_with_plan(&data, &Jaccard, &schedule)
        .unwrap();
    assert!(healed.report.shard_notes.is_empty());
    assert_survivors_identical(&healed, &clean);
    let retried = healed.shard_runs.iter().find(|sr| sr.shard == 1).unwrap();
    assert_eq!(retried.attempts, 2);
}

#[test]
fn torn_shard_wal_still_heals_or_quarantines_cleanly() {
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let supervisor = rock.shard_supervisor(shard_config(3)).unwrap();
    let clean = supervisor.run(&data, &Jaccard).unwrap();

    // Crash attempt 0 of shard 1 and tear its carried WAL down to a few
    // bytes (damaged magic): the resume fails typed, the supervisor
    // falls back to a from-scratch retry, and the run still heals.
    for keep in [0usize, 3, 9] {
        let schedule = ShardFaultSchedule::new()
            .crash_at_merge(1, 0, 2)
            .tear_wal(1, 0, keep);
        let healed = supervisor
            .run_with_plan(&data, &Jaccard, &schedule)
            .unwrap();
        assert!(healed.report.shard_notes.is_empty(), "keep={keep}");
        assert_survivors_identical(&healed, &clean);
    }
}

#[test]
fn coarse_merge_exhaustion_degrades_to_recorded_concatenation() {
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let supervisor = rock.shard_supervisor(shard_config(3)).unwrap();
    let clean = supervisor.run(&data, &Jaccard).unwrap();

    // Hang every attempt of the coarse merge pass (sentinel shard index
    // = shard count = 3): the run degrades to the concatenation of
    // shard-level clusters instead of failing.
    let schedule = ShardFaultSchedule::new().hang(3, 0).hang(3, 1).hang(3, 2);
    let run = supervisor
        .run_with_plan(&data, &Jaccard, &schedule)
        .unwrap();
    assert_eq!(run.report.shard_notes.len(), 1);
    let note = &run.report.shard_notes[0];
    assert_eq!(note.shard, 3, "sentinel index is the shard count");
    assert!(note.points.is_empty(), "no points are excluded");
    assert_eq!(note.attempts, 3);
    assert!(
        note.reason.contains("coarse merge abandoned"),
        "reason: {}",
        note.reason
    );
    assert!(run.report.degraded());
    assert!(run.excluded_points().is_empty());
    // Every shard still completed; the final clustering is the shard
    // clusters verbatim (no cross-shard merges).
    assert_eq!(run.shard_runs.len(), 3);
    let shard_cluster_count: usize = run
        .shard_runs
        .iter()
        .map(|sr| sr.run.clustering.clusters.len())
        .sum();
    assert_eq!(run.clustering.clusters.len(), shard_cluster_count);
    // The degraded clustering covers exactly the same points as the
    // clean one.
    let count_points = |r: &ShardedRun| {
        r.clustering.clusters.iter().map(Vec::len).sum::<usize>() + r.clustering.outliers.len()
    };
    assert_eq!(count_points(&run), count_points(&clean));
}

#[test]
fn cancelled_parent_aborts_instead_of_quarantining() {
    let data = three_clusters(18);
    let token = CancellationToken::new();
    token.cancel();
    let rock = engine(
        2,
        RunGovernor::unlimited().with_cancel_token(token.clone()),
    );
    let supervisor = rock.shard_supervisor(shard_config(3)).unwrap();
    match supervisor.run(&data, &Jaccard) {
        Err(RockError::Interrupted { reason, .. }) => {
            assert_eq!(reason, TripReason::Cancelled);
        }
        other => panic!("expected a typed cancellation, got {other:?}"),
    }
}

#[test]
fn sharded_report_aggregates_phase_perf_across_shards() {
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let run = rock
        .shard_supervisor(shard_config(3))
        .and_then(|s| s.run(&data, &Jaccard))
        .unwrap();
    let report = &run.report;
    assert_eq!(report.shard_count, Some(3));
    assert_eq!(report.records_read, data.len() as u64);
    assert!(report.phase_duration("cluster").is_some());
    assert!(report.phase_duration("merge").is_some());
    // The "cluster" window sums every shard's kernel work: at least the
    // pairwise candidate work of three θ-neighbor graphs.
    let cluster_perf = report
        .phase_counters("cluster")
        .expect("per-shard work must aggregate into the cluster phase");
    assert!(
        cluster_perf.pairs_emitted > 0 || cluster_perf.bytes_touched > 0,
        "no work counted across shards: {cluster_perf:?}"
    );
    // Shard bookkeeping shows up in the rendered report.
    let display = report.to_string();
    assert!(display.contains("shards: 3 total, 0 quarantined"), "{display}");
}

#[test]
fn sub_unit_representative_fraction_is_deterministic() {
    let data = three_clusters(18);
    let rock = engine(2, RunGovernor::unlimited());
    let config = ShardConfig {
        representative_fraction: 0.5,
        ..shard_config(3)
    };
    let a = rock
        .shard_supervisor(config.clone())
        .and_then(|s| s.run(&data, &Jaccard))
        .unwrap();
    let b = rock
        .shard_supervisor(config)
        .and_then(|s| s.run(&data, &Jaccard))
        .unwrap();
    assert_eq!(a.clustering, b.clustering);
    let assigned: usize =
        a.clustering.clusters.iter().map(Vec::len).sum::<usize>() + a.clustering.outliers.len();
    assert_eq!(assigned, data.len());
}

/// One cell of the chaos matrix: which fault hits a given
/// `(shard, attempt)`.
#[derive(Clone, Copy, Debug)]
enum FaultKind {
    Hang,
    MemoryTrip,
    CrashAtMerge(u64),
    CrashAndTear(u64, usize),
}

fn apply(schedule: ShardFaultSchedule, shard: usize, attempt: u32, kind: FaultKind) -> ShardFaultSchedule {
    match kind {
        FaultKind::Hang => schedule.hang(shard, attempt),
        FaultKind::MemoryTrip => schedule.trip_memory(shard, attempt),
        FaultKind::CrashAtMerge(k) => schedule.crash_at_merge(shard, attempt, k),
        FaultKind::CrashAndTear(k, keep) => schedule
            .crash_at_merge(shard, attempt, k)
            .tear_wal(shard, attempt, keep),
    }
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    (0usize..4, 0u64..3, 0usize..64).prop_map(|(which, k, keep)| match which {
        0 => FaultKind::Hang,
        1 => FaultKind::MemoryTrip,
        2 => FaultKind::CrashAtMerge(k),
        _ => FaultKind::CrashAndTear(k, keep),
    })
}

/// Guaranteed-fatal kinds for exhaustive schedules: a crash at merge
/// index `k` is only guaranteed to fire if the shard performs > k
/// merges, so ladder-exhausting schedules stick to kinds that trip
/// unconditionally (hang, memory) plus crash-at-0 (every shard here has
/// at least one merge).
fn fatal_fault_kind() -> impl Strategy<Value = FaultKind> {
    (0usize..3).prop_map(|which| match which {
        0 => FaultKind::Hang,
        1 => FaultKind::MemoryTrip,
        _ => FaultKind::CrashAtMerge(0),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite quarantine-ladder property: for any fault schedule that
    // exhausts the ladders of an arbitrary subset of shards, the
    // surviving clustering is bit-identical to running only the
    // surviving shards from scratch, and every excluded point is listed
    // in the degradation notes.
    #[test]
    fn exhausted_shards_quarantine_bit_identically_to_exclusion(
        shards in 2usize..5,
        threads_idx in 0usize..3,
        doomed_mask in 1u32..7,
        kinds in proptest::collection::vec(fatal_fault_kind(), 9),
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let data = three_clusters(18);
        let rock = engine(threads, RunGovernor::unlimited());
        let supervisor = rock.shard_supervisor(shard_config(shards)).unwrap();

        // Doom up to three distinct shards, faulting every attempt.
        let doomed: Vec<usize> = (0..3usize)
            .filter(|b| doomed_mask & (1 << b) != 0)
            .map(|b| b % shards)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut schedule = ShardFaultSchedule::new();
        let mut ki = 0;
        for &s in &doomed {
            for attempt in 0u32..3 {
                schedule = apply(schedule, s, attempt, kinds[ki]);
                ki += 1;
            }
        }

        let faulted = supervisor.run_with_plan(&data, &Jaccard, &schedule).unwrap();
        let oracle = supervisor.run_excluding(&data, &Jaccard, &doomed).unwrap();

        let mut quarantined: Vec<usize> =
            faulted.report.shard_notes.iter().map(|n| n.shard).collect();
        quarantined.sort_unstable();
        prop_assert_eq!(&quarantined, &doomed);
        for note in &faulted.report.shard_notes {
            prop_assert_eq!(note.attempts, 3, "full ladder before quarantine");
            let range = rock::shard_ranges(data.len(), shards)[note.shard].clone();
            let expected: Vec<u32> = range.map(|i| i as u32).collect();
            prop_assert_eq!(&note.points, &expected);
        }
        prop_assert!(faulted.report.degraded());
        assert_survivors_identical(&faulted, &oracle);
    }

    // Healing property: a schedule that leaves at least one clean
    // attempt per shard produces the fault-free result exactly — the
    // retry/resume machinery is invisible in the output.
    #[test]
    fn partial_fault_schedules_heal_to_the_fault_free_result(
        shards in 2usize..5,
        target in 0usize..4,
        kind in fault_kind(),
        second_kind in proptest::option::of(fault_kind()),
    ) {
        let data = three_clusters(18);
        let rock = engine(2, RunGovernor::unlimited());
        let supervisor = rock.shard_supervisor(shard_config(shards)).unwrap();
        let clean = supervisor.run(&data, &Jaccard).unwrap();

        // Fault attempts 0 (and maybe 1) of one shard; attempt 2 is
        // always clean, so the shard must survive.
        let target = target % shards;
        let mut schedule = apply(ShardFaultSchedule::new(), target, 0, kind);
        if let Some(k2) = second_kind {
            schedule = apply(schedule, target, 1, k2);
        }

        let healed = supervisor.run_with_plan(&data, &Jaccard, &schedule).unwrap();
        prop_assert!(healed.report.shard_notes.is_empty());
        prop_assert!(!healed.report.degraded());
        assert_survivors_identical(&healed, &clean);
    }
}

/// A parent deadline reaches a running shard: the child governor shares
/// the parent's clock and time budget, so the shard trips mid-run and
/// the ladder's next parent check aborts the whole run.
#[test]
fn parent_deadline_stops_a_running_shard() {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.03),
        &mut StdRng::seed_from_u64(1),
    )
    .transactions;
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .governor(RunGovernor::unlimited().with_time_budget(Duration::from_millis(5)))
        .build()
        .unwrap();
    let supervisor = rock.shard_supervisor(ShardConfig::new(1)).unwrap();
    match supervisor.run(&data, &Jaccard) {
        Err(RockError::Interrupted {
            phase: Phase::Merge,
            reason: TripReason::DeadlineExceeded,
            ..
        }) => {}
        other => panic!("expected the parent deadline to stop the shard, got {other:?}"),
    }
}
