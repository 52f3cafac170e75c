//! Error-contract acceptance tests: every user-facing [`RockError`]
//! variant that library code can construct is provoked here through the
//! public API and asserted by shape — the executable counterpart of
//! rock-tidy's `error-coverage` rule, which statically requires each
//! constructed variant to be matched somewhere under a `tests/` tree.
//!
//! Display formatting is covered by unit tests in `core/src/error.rs`;
//! these tests check the *construction* paths: that the documented
//! misuse really yields the documented variant, with the offending
//! values echoed back.

use rock::goodness::ConstantF;
use rock::governor::{CancellationToken, DegradationPolicy, RunGovernor, TripReason};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::{Jaccard, Similarity};
use rock::wal::MergeWal;
use rock::RockError;
use rock_core::artifact::ModelArtifact;
use std::path::Path;

/// Two well-separated basket clusters.
fn baskets() -> Vec<Transaction> {
    vec![
        Transaction::from([0, 1, 2]),
        Transaction::from([0, 1, 3]),
        Transaction::from([0, 2, 3]),
        Transaction::from([10, 11, 12]),
        Transaction::from([10, 11, 13]),
        Transaction::from([10, 12, 13]),
    ]
}

#[test]
fn zero_clusters_is_invalid_k() {
    assert!(matches!(
        Rock::builder().clusters(0).build(),
        Err(RockError::InvalidK(0))
    ));
}

#[test]
fn non_finite_ftheta_estimate_is_rejected() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let err = Rock::builder().f_theta(ConstantF(bad)).build().unwrap_err();
        match err {
            RockError::InvalidFTheta(v) => {
                assert!(!v.is_finite() || v < 0.0, "echoed value {v} should be the bad f(θ)")
            }
            other => panic!("expected InvalidFTheta, got {other:?}"),
        }
    }
}

#[test]
fn sample_smaller_than_k_is_rejected_with_both_values() {
    assert!(matches!(
        Rock::builder().clusters(10).sample_size(7).build(),
        Err(RockError::InvalidSampleSize {
            sample_size: 7,
            k: 10
        })
    ));
    // A sample of exactly k is the boundary and is fine.
    assert!(Rock::builder().clusters(10).sample_size(10).build().is_ok());
}

#[test]
fn weed_stop_multiple_below_one_is_rejected() {
    let err = Rock::builder().weed_outliers(0.25, 3).build().unwrap_err();
    assert!(matches!(err, RockError::InvalidWeedMultiple(m) if m == 0.25));
}

#[test]
fn zero_threads_is_rejected() {
    assert!(matches!(
        Rock::builder().threads(0).build(),
        Err(RockError::InvalidThreads(0))
    ));
}

#[test]
fn subsample_fraction_outside_open_interval_is_rejected() {
    for bad in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
        assert!(
            matches!(
                Rock::builder()
                    .degradation(DegradationPolicy::Subsample { fraction: bad })
                    .build(),
                Err(RockError::InvalidSubsampleFraction(_))
            ),
            "fraction {bad} must be rejected"
        );
    }
}

/// Jaccard, except any transaction containing item 13 evaluates to NaN.
struct NanOn13;

impl Similarity<Transaction> for NanOn13 {
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        if a.items().contains(&13) || b.items().contains(&13) {
            f64::NAN
        } else {
            Jaccard.similarity(a, b)
        }
    }
}

#[test]
fn checked_clustering_surfaces_non_finite_similarity() {
    let rock = Rock::builder().theta(0.5).clusters(2).build().unwrap();
    let err = rock.cluster(&baskets(), &NanOn13).unwrap_err();
    match err {
        RockError::NonFiniteSimilarity { value } => assert!(value.is_nan()),
        other => panic!("expected NonFiniteSimilarity, got {other:?}"),
    }
}

#[test]
fn cluster_and_run_obey_the_configured_governor() {
    let token = CancellationToken::new();
    token.cancel();
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(2)
        .governor(RunGovernor::unlimited().with_cancel_token(token))
        .build()
        .unwrap();
    let cancelled = |err: &RockError| {
        matches!(
            err,
            RockError::Interrupted {
                reason: TripReason::Cancelled,
                ..
            }
        )
    };
    let err = rock.cluster(&baskets(), &Jaccard).unwrap_err();
    assert!(cancelled(&err), "cluster: expected Interrupted, got {err:?}");
    let err = rock.run(&baskets(), &Jaccard).unwrap_err();
    assert!(cancelled(&err), "run: expected Interrupted, got {err:?}");
}

#[test]
fn resuming_a_wal_under_a_different_config_is_a_mismatch() {
    let data = baskets();
    let mut wal = MergeWal::new();
    let rock = Rock::builder().theta(0.5).clusters(2).build().unwrap();
    rock.cluster_wal(&data, &Jaccard, &mut wal).unwrap();
    let bytes = wal.into_bytes();
    // Same data, different θ: the WAL's configuration fingerprint no
    // longer matches the resuming run.
    let other = Rock::builder().theta(0.7).clusters(2).build().unwrap();
    let err = other
        .resume_cluster(&data, &Jaccard, &bytes, None)
        .unwrap_err();
    assert!(
        matches!(err, RockError::WalMismatch { .. }),
        "expected WalMismatch, got {err:?}"
    );
}

#[test]
fn loading_a_missing_artifact_is_an_io_error() {
    let err =
        ModelArtifact::load(Path::new("/nonexistent/rock-error-contract/model.rock")).unwrap_err();
    match err {
        RockError::ArtifactIo { detail } => {
            assert!(!detail.is_empty(), "the underlying I/O error must be echoed")
        }
        other => panic!("expected ArtifactIo, got {other:?}"),
    }
}
