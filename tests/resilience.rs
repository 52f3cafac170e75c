//! End-to-end resilience acceptance tests: a fault matrix over the
//! streaming labeling driver, plus the checkpoint-resume bit-identity
//! guarantee.
//!
//! The contract under test (see DESIGN.md, "Failure model"):
//!
//! 1. every injected fault is either recovered (retried or quarantined,
//!    visible in the [`rock_core::report::RunReport`]) or surfaced as a
//!    typed error — never a panic;
//! 2. a run interrupted by a hard failure and resumed from its
//!    checkpoint produces output bit-identical to an uninterrupted run
//!    over the same bytes.

use rock::governor::{Phase, RunGovernor, TripReason};
use rock::labeling::Labeler;
use rock::points::Transaction;
use rock::similarity::Jaccard;
use rock_data::faults::{corrupt_baskets, kill_at, FaultSpec, FaultyReader};
use rock_data::resilient::{
    label_stream_resilient, read_baskets_resilient, Checkpoint, IngestErrorKind, ResilientConfig,
    ResilientLabelRun, RetryPolicy,
};
use std::io::{BufRead, BufReader};

/// A labeler over the canonical two-cluster sample used throughout the
/// workspace tests.
fn labeler() -> Labeler<Transaction> {
    let sample = vec![
        Transaction::from([1, 2, 3]),
        Transaction::from([1, 2, 4]),
        Transaction::from([2, 3, 4]),
        Transaction::from([10, 11, 12]),
        Transaction::from([10, 11, 13]),
        Transaction::from([11, 12, 13]),
    ];
    let clusters = vec![vec![0, 1, 2], vec![3, 4, 5]];
    Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0)
}

/// A clean 200-line basket image: both clusters, outliers, comments and
/// blank lines.
fn clean_image() -> String {
    let mut s = String::from("# resilience-test database\n");
    for i in 0..200u32 {
        match i % 5 {
            0 => s.push_str("1 2 3\n"),
            1 => s.push_str("10 11 12\n"),
            2 => s.push_str(&format!("2 3 {}\n", 4 + i % 2)),
            3 => s.push_str(&format!("{} {}\n", 500 + i, 700 + i)), // outlier
            _ => {
                if i % 20 == 4 {
                    s.push('\n');
                } else {
                    s.push_str("11 12 13\n");
                }
            }
        }
    }
    s
}

fn config() -> ResilientConfig {
    ResilientConfig {
        retry: RetryPolicy::no_backoff(8),
        max_quarantine: 500,
        quarantine_detail: 8,
        checkpoint_every: 16,
    }
}

/// The ungoverned single-threaded pass every acceptance test below
/// compares against.
fn run_clean(image: &str) -> ResilientLabelRun {
    label_stream_resilient(
        BufReader::new(image.as_bytes()),
        &labeler(),
        &Jaccard,
        &config(),
        None,
        |_| {},
        &RunGovernor::unlimited(),
        1,
    )
    .expect("clean run cannot fail")
}

/// Matrix: data corruption (garbage/truncation) × recoverable transient
/// I/O faults, across seeds. Every cell must complete without panicking,
/// report its degradation, and match the fault-free pass over the same
/// (corrupted) image bit for bit.
#[test]
fn fault_matrix_recovers_and_matches_clean_pass() {
    let base = clean_image();
    for seed in [1u64, 7, 42] {
        for (garbage, truncate) in [(0.0, 0.0), (0.12, 0.0), (0.0, 0.12), (0.15, 0.15)] {
            let image = corrupt_baskets(
                &base,
                &FaultSpec::none(seed).garbage(garbage).truncate(truncate),
            );
            let baseline = run_clean(&image);
            if garbage > 0.0 {
                assert!(
                    baseline.checkpoint.records_quarantined > 0,
                    "seed {seed}: garbage rate {garbage} corrupted nothing"
                );
            }

            // Same image through a reader that fails transiently, with a
            // burst within the retry budget: must recover to identical
            // output and account for every fault. (Rate kept moderate:
            // consecutive scheduled faults chain into one record's retry
            // loop, and the budget must cover the longest chain.)
            let spec = FaultSpec::none(seed).transient(0.15, 1).chunk(16);
            let faulty = FaultyReader::new(image.as_bytes(), spec);
            let run = label_stream_resilient(
                BufReader::new(faulty),
                &labeler(),
                &Jaccard,
                &config(),
                None,
                |_| {},
                &RunGovernor::unlimited(),
                1,
            )
            .unwrap_or_else(|e| {
                panic!("seed {seed} g={garbage} t={truncate}: recoverable faults killed run: {e}")
            });
            assert!(
                run.report.transient_io_errors > 0,
                "seed {seed}: transient schedule never fired"
            );
            assert!(run.report.degraded());
            assert_eq!(run.labeling, baseline.labeling, "seed {seed}");
            assert_eq!(run.checkpoint, baseline.checkpoint, "seed {seed}");
        }
    }
}

/// Hard interruption mid-stream (burst beyond the retry budget), then
/// resume from the carried checkpoint: concatenated assignments and the
/// final checkpoint must equal the uninterrupted run exactly.
#[test]
fn interrupted_then_resumed_run_is_bit_identical() {
    let base = clean_image();
    for seed in [3u64, 9, 21] {
        let image = corrupt_baskets(&base, &FaultSpec::none(seed).garbage(0.1));
        let uninterrupted = run_clean(&image);

        let budget_config = ResilientConfig {
            retry: RetryPolicy::no_backoff(2),
            ..config()
        };
        let spec = FaultSpec::none(seed).transient(0.08, 8).chunk(16);
        let faulty = FaultyReader::new(image.as_bytes(), spec);
        let err = label_stream_resilient(
            BufReader::new(faulty),
            &labeler(),
            &Jaccard,
            &budget_config,
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .expect_err("burst 8 against budget 2 must interrupt the run");
        let IngestErrorKind::Io(io_err) = &err.kind else {
            panic!("seed {seed}: expected Io interruption, got {:?}", err.kind);
        };
        assert!(
            RetryPolicy::is_transient(io_err),
            "seed {seed}: interruption should be the exhausted transient"
        );
        assert!(
            err.checkpoint.byte_offset < image.len() as u64,
            "seed {seed}: run must stop mid-stream for the test to mean anything"
        );

        // The checkpoint round-trips through its byte encoding, as it
        // would when persisted between processes.
        let persisted = Checkpoint::decode(&err.checkpoint.encode()).unwrap();
        assert_eq!(persisted, err.checkpoint);

        let resumed = label_stream_resilient(
            BufReader::new(image.as_bytes()),
            &labeler(),
            &Jaccard,
            &budget_config,
            Some(&persisted),
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .expect("resume over a healthy reader completes");
        assert_eq!(resumed.report.resumed_from_offset, Some(persisted.byte_offset));

        let mut stitched = err.partial_assignments.clone();
        stitched.extend(resumed.labeling.assignments.iter().copied());
        assert_eq!(
            stitched, uninterrupted.labeling.assignments,
            "seed {seed}: stitched assignments diverge from the uninterrupted run"
        );
        assert_eq!(
            resumed.checkpoint, uninterrupted.checkpoint,
            "seed {seed}: cumulative end state diverges"
        );
    }
}

/// Multiple interruptions: keep resuming (each round over a differently
/// seeded faulty reader, with a final clean round as a backstop) and
/// still reconstruct the uninterrupted output exactly.
#[test]
fn repeated_interruptions_still_reconstruct_the_full_pass() {
    let image = clean_image();
    let uninterrupted = run_clean(&image);
    let budget_config = ResilientConfig {
        retry: RetryPolicy::no_backoff(1),
        ..config()
    };

    let mut stitched: Vec<Option<usize>> = Vec::new();
    let mut resume: Option<Checkpoint> = None;
    let mut interruptions = 0u32;
    let final_run = loop {
        let round = interruptions as u64;
        // The last round runs clean so the loop always terminates.
        let spec = if round < 6 {
            FaultSpec::none(100 + round).transient(0.05, 4).chunk(16)
        } else {
            FaultSpec::none(0)
        };
        let faulty = FaultyReader::new(image.as_bytes(), spec);
        match label_stream_resilient(
            BufReader::new(faulty),
            &labeler(),
            &Jaccard,
            &budget_config,
            resume.as_ref(),
            |_| {},
            &RunGovernor::unlimited(),
            1,
        ) {
            Ok(run) => {
                stitched.extend(run.labeling.assignments.iter().copied());
                break run;
            }
            Err(e) => {
                assert!(matches!(e.kind, IngestErrorKind::Io(_)), "{:?}", e.kind);
                stitched.extend(e.partial_assignments.iter().copied());
                resume = Some(e.checkpoint);
                interruptions += 1;
                assert!(interruptions < 50, "resume loop failed to make progress");
            }
        }
    };
    assert_eq!(stitched, uninterrupted.labeling.assignments);
    assert_eq!(final_run.checkpoint, uninterrupted.checkpoint);
}

/// The resilient reader (no labeling) under the same fault matrix:
/// quarantines garbage, retries transients, and returns the transactions
/// a plain reader would have produced from the clean lines.
#[test]
fn resilient_reader_survives_the_fault_matrix() {
    let base = clean_image();
    for seed in [2u64, 13] {
        let image = corrupt_baskets(&base, &FaultSpec::none(seed).garbage(0.1).truncate(0.1));
        let (clean_ts, clean_report, clean_cp) = read_baskets_resilient(
            BufReader::new(image.as_bytes()),
            &config(),
            None,
        )
        .unwrap();
        let spec = FaultSpec::none(seed).transient(0.15, 1).chunk(16);
        let faulty = FaultyReader::new(image.as_bytes(), spec);
        let (ts, report, cp) =
            read_baskets_resilient(BufReader::new(faulty), &config(), None).unwrap();
        assert_eq!(ts, clean_ts, "seed {seed}");
        assert_eq!(cp, clean_cp, "seed {seed}");
        assert_eq!(report.records_quarantined, clean_report.records_quarantined);
        assert!(report.transient_io_errors > 0, "seed {seed}: no faults fired");
        assert_eq!(cp.byte_offset, image.len() as u64);
    }
}

/// Quarantine overflow is a typed, resumable stop — and resuming with a
/// raised cap finishes the pass.
#[test]
fn quarantine_overflow_is_typed_and_resumable() {
    let image = corrupt_baskets(&clean_image(), &FaultSpec::none(4).garbage(0.3));
    let tight = ResilientConfig {
        max_quarantine: 3,
        ..config()
    };
    let err = label_stream_resilient(
        BufReader::new(image.as_bytes()),
        &labeler(),
        &Jaccard,
        &tight,
        None,
        |_| {},
        &RunGovernor::unlimited(),
        1,
    )
    .expect_err("30% garbage must overflow a cap of 3");
    assert!(matches!(
        err.kind,
        IngestErrorKind::QuarantineOverflow { cap: 3 }
    ));

    let resumed = label_stream_resilient(
        BufReader::new(image.as_bytes()),
        &labeler(),
        &Jaccard,
        &config(), // generous cap
        Some(&err.checkpoint),
        |_| {},
        &RunGovernor::unlimited(),
        1,
    )
    .expect("raised cap finishes the pass");

    let full = run_clean(&image);
    let mut stitched = err.partial_assignments.clone();
    stitched.extend(resumed.labeling.assignments.iter().copied());
    assert_eq!(stitched, full.labeling.assignments);
    assert_eq!(resumed.checkpoint, full.checkpoint);
}

/// A governor kill (simulated crash / cancellation) composes with the
/// I/O fault matrix: the run stops at the injected line with a typed
/// `Interrupted` error even while transient faults are being retried,
/// and resuming from its checkpoint reconstructs the uninterrupted
/// output.
#[test]
fn governor_kill_composes_with_io_faults() {
    let image = corrupt_baskets(&clean_image(), &FaultSpec::none(17).garbage(0.1));
    let uninterrupted = run_clean(&image);

    for kill_line in [1u64, 50, 150] {
        let spec = FaultSpec::none(17).transient(0.1, 1).chunk(16);
        let faulty = FaultyReader::new(image.as_bytes(), spec);
        let err = label_stream_resilient(
            BufReader::new(faulty),
            &labeler(),
            &Jaccard,
            &config(),
            None,
            |_| {},
            &kill_at(Phase::Labeling, kill_line),
            1,
        )
        .expect_err("injected kill must interrupt the run");
        assert!(matches!(
            err.kind,
            IngestErrorKind::Interrupted {
                phase: Phase::Labeling,
                reason: TripReason::Cancelled,
            }
        ));
        assert_eq!(err.checkpoint.lines_seen, kill_line, "kill at {kill_line}");
        assert_eq!(
            err.report.interrupted,
            Some((Phase::Labeling, TripReason::Cancelled))
        );

        let resumed = label_stream_resilient(
            BufReader::new(image.as_bytes()),
            &labeler(),
            &Jaccard,
            &config(),
            Some(&err.checkpoint),
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .expect("resume with an unlimited governor completes");

        let mut stitched = err.partial_assignments.clone();
        stitched.extend(resumed.labeling.assignments.iter().copied());
        assert_eq!(
            stitched, uninterrupted.labeling.assignments,
            "kill at {kill_line}: stitched assignments diverge"
        );
        assert_eq!(resumed.checkpoint, uninterrupted.checkpoint);
    }
}

/// Transient read errors a plain line-at-a-time reader meets while
/// reading the first `lines` lines of `image` through a faulty reader
/// built from `spec` — the reads a pass stopped after line `lines` made.
fn transient_errors_through_line(image: &str, spec: FaultSpec, lines: u64) -> u64 {
    let mut reader = BufReader::new(FaultyReader::new(image.as_bytes(), spec));
    let mut buf = Vec::new();
    let mut errors = 0;
    for _ in 0..lines {
        loop {
            match reader.read_until(b'\n', &mut buf) {
                Ok(_) => break,
                Err(e) if RetryPolicy::is_transient(&e) => errors += 1,
                Err(e) => panic!("unexpected hard read error: {e}"),
            }
        }
    }
    errors
}

/// A pass stopped at line k — by a governor kill or by a quarantine
/// overflow — reports the read retries of lines 1..=k only, for every
/// thread count, although the driver reads whole batches ahead.
#[test]
fn stopped_pass_reports_only_the_retries_of_lines_it_folded() {
    let stream: String = (0..200)
        .map(|i| if i % 2 == 0 { "1 2 3\n" } else { "10 11 12\n" })
        .collect();
    let spec = || FaultSpec::none(3).transient(0.15, 1).chunk(16);
    let garbled = corrupt_baskets(&stream, &FaultSpec::none(5).garbage(0.3));
    let tight = ResilientConfig {
        max_quarantine: 3,
        ..config()
    };
    let cases = [
        ("kill", &stream, config(), kill_at(Phase::Labeling, 20)),
        ("overflow", &garbled, tight, RunGovernor::unlimited()),
    ];
    for (case, image, config, governor) in cases {
        for threads in [1, 2, 8] {
            let err = label_stream_resilient(
                BufReader::new(FaultyReader::new(image.as_bytes(), spec())),
                &labeler(),
                &Jaccard,
                &config,
                None,
                |_| {},
                &governor,
                threads,
            )
            .expect_err("the pass must stop early");
            let stop = err.checkpoint.lines_seen;
            assert!(stop < 200, "{case}: stopped at line {stop}");
            let expected = transient_errors_through_line(image, spec(), stop);
            assert!(expected > 0, "{case}: no fault fired before line {stop}");
            assert_eq!(
                err.report.transient_io_errors, expected,
                "{case}, threads={threads}"
            );
            assert_eq!(err.report.io_retries, expected, "{case}, threads={threads}");
        }
    }
}
