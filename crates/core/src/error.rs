//! Error type for configuration validation at the public API boundary.
//!
//! Low-level modules assert their preconditions (programmer errors);
//! the [`crate::rock::RockBuilder`] validates *user-supplied*
//! configuration and reports problems as values. Governed runs
//! additionally surface budget trips ([`RockError::Interrupted`]) and
//! write-ahead-log damage ([`RockError::WalCorrupt`],
//! [`RockError::WalMismatch`]) as values — never as panics.

use crate::governor::{Phase, TripReason};
use std::fmt;

/// A configuration error from [`crate::rock::RockBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum RockError {
    /// θ must lie in `[0, 1]`.
    InvalidTheta(f64),
    /// The target cluster count must be ≥ 1.
    InvalidK(usize),
    /// `f(θ)` evaluated to something non-finite or negative.
    InvalidFTheta(f64),
    /// The labeling fraction must lie in `(0, 1]`.
    InvalidLabelingFraction(f64),
    /// The sample size must be ≥ the target cluster count.
    InvalidSampleSize {
        /// The configured sample size.
        sample_size: usize,
        /// The configured target cluster count.
        k: usize,
    },
    /// A weed policy must have `stop_multiple ≥ 1`.
    InvalidWeedMultiple(f64),
    /// Thread count must be ≥ 1.
    InvalidThreads(usize),
    /// A sharded run's shard count must be ≥ 1 (see
    /// [`crate::engine::supervisor::ShardSupervisor`]).
    InvalidShardCount(usize),
    /// A [`crate::governor::DegradationPolicy::Subsample`] fraction must
    /// lie strictly in `(0, 1)`.
    InvalidSubsampleFraction(f64),
    /// A user-supplied similarity measure returned NaN or ±∞.
    ///
    /// Surfaced by the driver entry points ([`crate::rock::Rock::cluster`],
    /// [`crate::rock::Rock::run`], [`crate::rock::Rock::cluster_wal`],
    /// [`crate::labeling::Labeler::label_point_checked`],
    /// [`crate::labeling::LabelPass::label_checked`] and
    /// [`crate::incremental::IncrementalRockState::update`], the last
    /// three through the same checked §4.6 scan) instead of letting the value
    /// poison neighbor decisions or trip heap asserts mid-merge.
    NonFiniteSimilarity {
        /// The offending similarity value.
        value: f64,
    },
    /// A governed run stopped early: the cancellation token fired, the
    /// wall-clock deadline passed, or the memory budget was exceeded
    /// (see [`crate::governor::RunGovernor`]).
    Interrupted {
        /// The phase that observed the trip.
        phase: Phase,
        /// Which budget tripped.
        reason: TripReason,
        /// Whether the run can be resumed from a merge WAL: `true` when
        /// the interrupted entry point was writing one
        /// (see [`crate::wal::MergeWal`]).
        resumable: bool,
    },
    /// A merge write-ahead log is structurally damaged beyond the
    /// recoverable torn tail: bad magic, or a corrupt header/Begin
    /// record. Torn tails (incomplete or CRC-failing trailing frames)
    /// are *not* errors — they are truncated on parse.
    WalCorrupt {
        /// Byte offset of the damage.
        offset: u64,
        /// What failed to parse.
        detail: String,
    },
    /// A merge WAL is internally consistent but does not belong to the
    /// run being resumed: different configuration fingerprint, different
    /// input, or a merge record that contradicts the replayed state.
    WalMismatch {
        /// The disagreement found.
        detail: String,
    },
    /// A fitted-model artifact is structurally damaged: bad magic, a
    /// truncated tail, a frame that fails its CRC, a record that does
    /// not decode, or bytes past the end marker. Unlike the WAL, the
    /// artifact tolerates **no** damage — any byte flip or truncation is
    /// this error, never a silently wrong clustering.
    ArtifactCorrupt {
        /// Byte offset of the damage.
        offset: u64,
        /// What failed to parse.
        detail: String,
    },
    /// A fitted-model artifact declares a format version this build does
    /// not understand.
    ArtifactVersion {
        /// The version found in the artifact header.
        found: u32,
        /// The newest version this build can read.
        supported: u32,
    },
    /// A fitted-model artifact decodes cleanly but is internally
    /// inconsistent (a representative index out of range, a cluster
    /// count mismatch between sections, a dendrogram that does not
    /// replay) or does not belong to the model loading it.
    ArtifactMismatch {
        /// The inconsistency found.
        detail: String,
    },
    /// An I/O failure while reading or writing a fitted-model artifact
    /// that persisted past the serve layer's bounded retries.
    ArtifactIo {
        /// The underlying I/O error, rendered.
        detail: String,
    },
}

impl fmt::Display for RockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RockError::InvalidTheta(t) => {
                write!(f, "similarity threshold theta must be in [0, 1], got {t}")
            }
            RockError::InvalidK(k) => write!(f, "target cluster count must be >= 1, got {k}"),
            RockError::InvalidFTheta(v) => {
                write!(f, "f(theta) must be finite and non-negative, got {v}")
            }
            RockError::InvalidLabelingFraction(v) => {
                write!(f, "labeling fraction must be in (0, 1], got {v}")
            }
            RockError::InvalidSampleSize { sample_size, k } => write!(
                f,
                "sample size {sample_size} is smaller than the target cluster count {k}"
            ),
            RockError::InvalidWeedMultiple(m) => {
                write!(f, "weed stop multiple must be >= 1, got {m}")
            }
            RockError::InvalidThreads(t) => write!(f, "thread count must be >= 1, got {t}"),
            RockError::InvalidShardCount(s) => write!(f, "shard count must be >= 1, got {s}"),
            RockError::InvalidSubsampleFraction(v) => {
                write!(f, "subsample degradation fraction must be in (0, 1), got {v}")
            }
            RockError::NonFiniteSimilarity { value } => write!(
                f,
                "similarity measure returned a non-finite value {value}; \
                 similarities must lie in [0, 1]"
            ),
            RockError::Interrupted {
                phase,
                reason,
                resumable,
            } => write!(
                f,
                "run interrupted in {phase} phase: {reason}{}",
                if *resumable {
                    " (resumable from the merge WAL)"
                } else {
                    ""
                }
            ),
            RockError::WalCorrupt { offset, detail } => {
                write!(f, "merge WAL corrupt at byte {offset}: {detail}")
            }
            RockError::WalMismatch { detail } => {
                write!(f, "merge WAL does not match this run: {detail}")
            }
            RockError::ArtifactCorrupt { offset, detail } => {
                write!(f, "model artifact corrupt at byte {offset}: {detail}")
            }
            RockError::ArtifactVersion { found, supported } => write!(
                f,
                "model artifact format version {found} is not supported \
                 (this build reads up to version {supported})"
            ),
            RockError::ArtifactMismatch { detail } => {
                write!(f, "model artifact is inconsistent: {detail}")
            }
            RockError::ArtifactIo { detail } => {
                write!(f, "model artifact I/O failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_values() {
        let cases: Vec<(RockError, &str)> = vec![
            (RockError::InvalidTheta(1.5), "1.5"),
            (RockError::InvalidK(0), "0"),
            (RockError::InvalidFTheta(f64::NAN), "NaN"),
            (RockError::InvalidLabelingFraction(0.0), "0"),
            (
                RockError::InvalidSampleSize {
                    sample_size: 3,
                    k: 10,
                },
                "3",
            ),
            (RockError::InvalidWeedMultiple(0.5), "0.5"),
            (RockError::InvalidThreads(0), "0"),
            (RockError::InvalidShardCount(0), "shard count"),
            (RockError::InvalidSubsampleFraction(1.0), "(0, 1)"),
            (
                RockError::NonFiniteSimilarity { value: f64::NAN },
                "NaN",
            ),
            (
                RockError::Interrupted {
                    phase: Phase::Merge,
                    reason: TripReason::DeadlineExceeded,
                    resumable: true,
                },
                "resumable",
            ),
            (
                RockError::WalCorrupt {
                    offset: 17,
                    detail: "bad magic".into(),
                },
                "byte 17",
            ),
            (
                RockError::WalMismatch {
                    detail: "k differs".into(),
                },
                "k differs",
            ),
            (
                RockError::ArtifactCorrupt {
                    offset: 42,
                    detail: "truncated frame".into(),
                },
                "byte 42",
            ),
            (
                RockError::ArtifactVersion {
                    found: 9,
                    supported: 1,
                },
                "9",
            ),
            (
                RockError::ArtifactMismatch {
                    detail: "representative index out of range".into(),
                },
                "representative index",
            ),
            (
                RockError::ArtifactIo {
                    detail: "read timed out".into(),
                },
                "timed out",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&RockError::InvalidK(0));
    }
}
