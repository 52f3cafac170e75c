//! Corruption-tolerant assign service: batched §4.6 labeling queries
//! against a loaded [`ModelArtifact`].
//!
//! The paper's Fig.-2 split — cluster a sample once, then label the
//! rest of the data against the per-cluster representative sets Lᵢ —
//! makes the fitted model a *servable* object: an
//! [`AssignService`] answers "which cluster does this point belong to"
//! queries long after the fit, from an artifact reloaded off disk.
//! The service layers the repo's robustness machinery around that
//! query path:
//!
//! * **Bounded retry** around a pluggable [`ArtifactSource`]
//!   ([`AssignService::from_source`]): transient I/O errors
//!   (`WouldBlock`, `TimedOut`, `Interrupted`) are retried with capped
//!   exponential backoff; anything else — including artifact
//!   corruption, which retrying cannot fix — surfaces immediately as a
//!   typed [`RockError`].
//! * **Per-batch deadline and cancellation** via the existing
//!   [`RunGovernor`]: every query is a [`Phase::Labeling`] checkpoint.
//! * **Deadline downshift**: when the batch deadline trips mid-batch,
//!   the service downshifts from full representative scoring to a
//!   single centroid per cluster ([`Centroid`]) — O(k) instead of
//!   O(Σ|Lᵢ|) per query — and finishes the batch, recording the switch
//!   in the [`ServeReport`]. Cancellation and memory trips abort.
//! * **Quarantine**: a query whose similarity evaluation degenerates
//!   (NaN/±∞ from a user measure) is recorded and left unassigned
//!   instead of poisoning the batch.
//! * **Lifetime stats**: the service keeps cumulative
//!   [`ServeStats`] counters and a bounded log of recent
//!   [`ServeDegradationNote`]s across every batch it has served
//!   ([`AssignService::lifetime_stats`]), updated *after* each batch
//!   completes so no lock is ever held across a user similarity call.
//!   The two interior locks follow one service-wide acquisition order —
//!   stats before the degradation log — checked statically by
//!   `rock-tidy`'s lock-order rule.
//!
//! Queries borrow the service immutably, so one service instance
//! safely serves concurrent reader threads.
//!
//! **Online mode** ([`OnlineAssignService`]) pairs the read path with an
//! evolving model: one writer absorbs arrival batches into an
//! [`IncrementalRockState`] (update-WAL-logged, bounded re-merges) and
//! publishes each changed model as a fresh [`AssignService`] snapshot
//! behind an `Arc` swap, so concurrent readers are never blocked behind
//! an update or re-merge.

use crate::artifact::{ArtifactPoint, ArtifactSource, ModelArtifact};
use crate::error::RockError;
use crate::governor::{Phase, RunGovernor, TripReason};
use crate::incremental::{IncrementalRockState, StalenessPolicy, UpdateOutcome};
use crate::labeling::Labeler;
use crate::report::QuarantinedRecord;
use crate::similarity::Similarity;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use crate::util::retry::RetryPolicy;

/// Serving knobs for an [`AssignService`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeConfig {
    /// Wall-clock budget per [`AssignService::assign_batch`] call;
    /// `None` = no deadline. A tripped deadline downshifts the rest of
    /// the batch to centroid scoring.
    pub batch_deadline: Option<Duration>,
}

/// A mid-batch downshift to centroid scoring, as recorded in the
/// [`ServeReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServeDegradationNote {
    /// Index of the first query served degraded.
    pub at_query: u64,
    /// Which budget tripped.
    pub reason: TripReason,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for ServeDegradationNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degraded to centroid from query {} ({}): {}",
            self.at_query, self.reason, self.detail
        )
    }
}

/// Structured account of one served batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Queries in the batch.
    pub queries: u64,
    /// Queries assigned to a cluster.
    pub assigned: u64,
    /// Queries labeled as outliers (no neighbors in any labeling set).
    pub unassigned: u64,
    /// Queries quarantined (non-finite similarity) — always exact, even
    /// past the detail cap.
    pub records_quarantined: u64,
    /// Detailed records for the first [`QUARANTINE_DETAIL_CAP`]
    /// quarantined queries (`line` = query index within the batch).
    pub quarantined: Vec<QuarantinedRecord>,
    /// The mid-batch downshift, if the deadline tripped.
    pub degraded: Option<ServeDegradationNote>,
}

/// One served batch: per-query assignments plus the report.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeBatch {
    /// `assignments[i]` = cluster index for query `i`, or `None` for
    /// outliers and quarantined queries.
    pub assignments: Vec<Option<usize>>,
    /// What happened while serving.
    pub report: ServeReport,
}

/// Cumulative counters over every batch one [`AssignService`] instance
/// has served (see [`AssignService::lifetime_stats`]). All counts are
/// exact: they are folded in under a lock after each batch completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches served to completion (aborted batches are not counted).
    pub batches: u64,
    /// Queries across all completed batches.
    pub queries: u64,
    /// Queries assigned to a cluster.
    pub assigned: u64,
    /// Queries labeled as outliers.
    pub unassigned: u64,
    /// Queries quarantined for non-finite similarity.
    pub quarantined: u64,
    /// Batches that finished degraded (deadline tripped mid-batch).
    pub degraded_batches: u64,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} batches ({} degraded): {} queries = {} assigned + {} unassigned + {} quarantined",
            self.batches,
            self.degraded_batches,
            self.queries,
            self.assigned,
            self.unassigned,
            self.quarantined
        )
    }
}

/// How many [`ServeDegradationNote`]s the service retains: the log keeps
/// the most recent `DEGRADATION_LOG_CAP` notes and drops the oldest
/// (the exact count survives in [`ServeStats::degraded_batches`]).
pub const DEGRADATION_LOG_CAP: usize = 16;

/// At most this many quarantined queries keep a detailed record per
/// batch; [`ServeReport::records_quarantined`] is always exact.
pub const QUARANTINE_DETAIL_CAP: usize = 32;

/// A point type whose representative set can collapse to one summary
/// point — the scoring mode a tripped batch deadline downshifts to.
pub trait Centroid: Sized {
    /// A single point summarising `reps`, or `None` when `reps` is
    /// empty. Must be deterministic.
    fn centroid(reps: &[Self]) -> Option<Self>;
}

impl Centroid for crate::points::Transaction {
    /// Majority vote: keeps every item present in at least half of the
    /// representatives (2·count ≥ |reps|).
    fn centroid(reps: &[Self]) -> Option<Self> {
        if reps.is_empty() {
            return None;
        }
        let mut counts = std::collections::BTreeMap::new();
        for t in reps {
            for &item in t.items() {
                *counts.entry(item).or_insert(0usize) += 1;
            }
        }
        let items = counts
            .into_iter()
            .filter(|&(_, n)| n * 2 >= reps.len())
            .map(|(item, _)| item)
            .collect();
        Some(crate::points::Transaction::new(items))
    }
}

impl Centroid for Vec<f64> {
    /// Componentwise mean over the shortest common prefix.
    fn centroid(reps: &[Self]) -> Option<Self> {
        if reps.is_empty() {
            return None;
        }
        let len = reps.iter().map(Vec::len).min().unwrap_or(0);
        Some(
            (0..len)
                // tidy-allow(panic-reach): i < len == the minimum rep length, so every r[i] is in bounds
                .map(|i| reps.iter().map(|r| r[i]).sum::<f64>() / reps.len() as f64)
                .collect(),
        )
    }
}

/// Fetches and parses an artifact through `source`, retrying transient
/// I/O errors with capped exponential backoff. Returns the artifact and
/// the number of retries it took.
///
/// # Errors
/// [`RockError::ArtifactIo`] when a non-transient error occurs or the
/// retry budget is exhausted; parse/validation errors as
/// [`ModelArtifact::from_bytes`] (corruption is *not* retried — a
/// deterministic reread cannot fix it).
fn load_artifact_with_retry(
    source: &mut dyn ArtifactSource,
    retry: &RetryPolicy,
) -> Result<(ModelArtifact, u64), RockError> {
    let mut retries = 0u64;
    match retry.run(&mut retries, || source.fetch()) {
        Ok(bytes) => ModelArtifact::from_bytes(&bytes).map(|a| (a, retries)),
        Err(e) => Err(RockError::ArtifactIo {
            detail: format!("artifact fetch failed after {retries} retries: {e}"),
        }),
    }
}

/// A loaded model serving batched assign/label queries.
///
/// All query methods take `&self`; the service is `Sync` (for `Sync`
/// point and measure types) and one instance serves concurrent reader
/// threads. Lifetime counters live behind interior locks with one
/// service-wide acquisition order: `stats` strictly before
/// `degradations`, never the reverse — every path that needs both takes
/// them in that order, so the two locks cannot deadlock.
#[derive(Debug)]
pub struct AssignService<P, S> {
    full: Labeler<P>,
    centroid: Labeler<P>,
    measure: S,
    config: ServeConfig,
    stats: Mutex<ServeStats>,
    degradations: Mutex<VecDeque<ServeDegradationNote>>,
}

impl<P: Clone, S: Clone> Clone for AssignService<P, S> {
    /// The clone starts from a snapshot of the source's lifetime stats;
    /// the two services count independently afterwards.
    fn clone(&self) -> Self {
        let (stats, notes) = self.lifetime_stats();
        AssignService {
            full: self.full.clone(),
            centroid: self.centroid.clone(),
            measure: self.measure.clone(),
            config: self.config.clone(),
            stats: Mutex::new(stats),
            degradations: Mutex::new(notes.into()),
        }
    }
}

impl<P, S> AssignService<P, S> {
    /// A consistent snapshot of the lifetime counters and the retained
    /// degradation log (most recent last, at most
    /// [`DEGRADATION_LOG_CAP`] notes).
    ///
    /// Both locks are taken in the service-wide order — stats, then the
    /// degradation log — so the counters and the log describe the same
    /// prefix of served batches even under concurrent writers.
    pub fn lifetime_stats(&self) -> (ServeStats, Vec<ServeDegradationNote>) {
        // Both locked regions are call-free (ServeStats is Copy;
        // `.cloned()` never names a workspace `clone`), so the static
        // lock-order analysis sees no lock held across an outbound call.
        let stats = self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // tidy-allow(lock-order): service-wide order is stats → degradations; record_batch nests identically
        let log = self.degradations.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        (*stats, log.iter().cloned().collect())
    }

    /// Folds one completed batch into the lifetime counters. Called
    /// after the batch loop finishes — never while a query (and thus a
    /// user similarity measure) is in flight.
    fn record_batch(&self, report: &ServeReport) {
        let note = report.degraded.clone();
        let mut stats = self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        stats.batches += 1;
        stats.queries += report.queries;
        stats.assigned += report.assigned;
        stats.unassigned += report.unassigned;
        stats.quarantined += report.records_quarantined;
        if let Some(note) = note {
            stats.degraded_batches += 1;
            // tidy-allow(lock-order): service-wide order is stats → degradations; lifetime_stats nests identically
            let mut log = self.degradations.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if log.len() == DEGRADATION_LOG_CAP {
                log.pop_front();
            }
            log.push_back(note);
        }
    }
}

impl<P, S> AssignService<P, S>
where
    P: ArtifactPoint + Centroid + Clone,
    S: Similarity<P>,
{
    /// A service over `artifact`'s representative sets.
    ///
    /// # Errors
    /// [`RockError::ArtifactMismatch`] when the artifact has no
    /// representative section or its points do not decode as `P`.
    pub fn new(artifact: &ModelArtifact, measure: S, config: ServeConfig) -> Result<Self, RockError> {
        AssignService::from_labeler(artifact.labeler()?, measure, config)
    }

    /// A service over the representative sets of `full`: the one
    /// constructor behind [`AssignService::new`] and the snapshots
    /// [`OnlineAssignService::absorb_batch`] publishes.
    ///
    /// # Errors
    /// As [`Labeler::from_sets`], for the centroid labeler.
    fn from_labeler(full: Labeler<P>, measure: S, config: ServeConfig) -> Result<Self, RockError> {
        let centroid_sets = full
            .sets()
            .iter()
            .map(|set| P::centroid(set).map_or_else(Vec::new, |c| vec![c]))
            .collect();
        let centroid = Labeler::from_sets(centroid_sets, full.theta(), full.ftheta())?;
        Ok(AssignService {
            full,
            centroid,
            measure,
            config,
            stats: Mutex::new(ServeStats::default()),
            degradations: Mutex::new(VecDeque::new()),
        })
    }

    /// Loads the artifact through `source` (with the default
    /// [`RetryPolicy`]) and builds the service. Returns the service and
    /// the number of fetch retries.
    ///
    /// # Errors
    /// [`RockError::ArtifactIo`] when a non-transient fetch error occurs
    /// or the retry budget is exhausted; otherwise as
    /// [`ModelArtifact::from_bytes`] and [`AssignService::new`].
    pub fn from_source(
        source: &mut dyn ArtifactSource,
        measure: S,
        config: ServeConfig,
    ) -> Result<(Self, u64), RockError> {
        let (artifact, retries) = load_artifact_with_retry(source, &RetryPolicy::default())?;
        Ok((AssignService::new(&artifact, measure, config)?, retries))
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of clusters queries are assigned into.
    pub fn num_clusters(&self) -> usize {
        self.full.num_clusters()
    }

    /// Serves one batch under the configured deadline
    /// ([`ServeConfig::batch_deadline`]).
    ///
    /// # Errors
    /// [`RockError::Interrupted`] when cancelled or over a memory
    /// budget; a tripped deadline degrades instead of failing.
    pub fn assign_batch(&self, queries: &[P]) -> Result<ServeBatch, RockError> {
        let mut governor = RunGovernor::unlimited().with_check_every(1);
        if let Some(deadline) = self.config.batch_deadline {
            governor = governor.with_time_budget(deadline);
        }
        self.assign_batch_governed(queries, &governor)
    }

    /// Serves one batch under `governor`; every query is a
    /// [`Phase::Labeling`] checkpoint.
    fn assign_batch_governed(
        &self,
        queries: &[P],
        governor: &RunGovernor,
    ) -> Result<ServeBatch, RockError> {
        governor.arm();
        let mut report = ServeReport {
            queries: queries.len() as u64,
            ..ServeReport::default()
        };
        let mut assignments = Vec::with_capacity(queries.len());
        for (i, query) in queries.iter().enumerate() {
            if let Err(trip) = governor.check_at(Phase::Labeling, i as u64) {
                let RockError::Interrupted { reason, .. } = trip else {
                    return Err(trip);
                };
                let may_degrade = reason == TripReason::DeadlineExceeded;
                match (may_degrade, &report.degraded) {
                    // Already degraded: the deadline stays tripped for
                    // the rest of the batch; keep completing it.
                    (true, Some(_)) => {}
                    (true, None) => {
                        report.degraded = Some(ServeDegradationNote {
                            at_query: i as u64,
                            reason,
                            detail: format!(
                                "batch deadline tripped at query {i}/{}; finishing with \
                                 centroid-of-representatives scoring",
                                queries.len()
                            ),
                        });
                    }
                    // Cancellation and memory trips always abort.
                    (false, _) => {
                        return Err(RockError::Interrupted {
                            phase: Phase::Labeling,
                            reason,
                            resumable: false,
                        })
                    }
                }
            }
            let labeler = if report.degraded.is_some() {
                &self.centroid
            } else {
                &self.full
            };
            match labeler.label_point_checked(query, &self.measure) {
                Ok(assignment) => {
                    match assignment {
                        Some(_) => report.assigned += 1,
                        None => report.unassigned += 1,
                    }
                    assignments.push(assignment);
                }
                Err(RockError::NonFiniteSimilarity { value }) => {
                    report.records_quarantined += 1;
                    if report.quarantined.len() < QUARANTINE_DETAIL_CAP {
                        report.quarantined.push(QuarantinedRecord {
                            line: i as u64,
                            reason: format!("non-finite similarity {value}"),
                        });
                    }
                    assignments.push(None);
                }
                Err(other) => return Err(other),
            }
        }
        self.record_batch(&report);
        Ok(ServeBatch {
            assignments,
            report,
        })
    }
}

/// An assign service over an *evolving* model.
///
/// Pairs an [`IncrementalRockState`] (the single writer) with an
/// atomically swappable [`AssignService`] snapshot (any number of
/// readers). Readers take an `Arc` snapshot via
/// [`OnlineAssignService::service`] and keep serving queries from it;
/// [`OnlineAssignService::absorb_batch`] applies an update, builds the
/// *next* snapshot entirely off-lock, and publishes it with a single
/// pointer swap — readers are never blocked behind an update or a
/// re-merge. Snapshots taken before a swap keep answering from the
/// pre-update model until their holders re-fetch (the usual
/// read-copy-update trade), and each snapshot keeps its own lifetime
/// stats.
///
/// Durability follows the incremental contract: the state's update WAL
/// ([`OnlineAssignService::state`] → [`IncrementalRockState::wal`])
/// replays to the bit-identical evolved model, and
/// [`IncrementalRockState::to_artifact`] saves it as a version-2
/// artifact.
pub struct OnlineAssignService<P, S> {
    state: IncrementalRockState<P>,
    measure: S,
    config: ServeConfig,
    current: Mutex<Arc<AssignService<P, S>>>,
}

impl<P, S> OnlineAssignService<P, S>
where
    P: ArtifactPoint + Centroid + Clone,
    S: Similarity<P> + Clone,
{
    /// Opens `artifact` for online serving under `policy`.
    ///
    /// # Errors
    /// As [`IncrementalRockState::from_artifact`] and
    /// [`AssignService::new`].
    pub fn new(
        artifact: &ModelArtifact,
        measure: S,
        config: ServeConfig,
        policy: StalenessPolicy,
    ) -> Result<Self, RockError> {
        let state = IncrementalRockState::from_artifact(artifact, policy)?;
        let service =
            AssignService::from_labeler(state.labeler().clone(), measure.clone(), config.clone())?;
        Ok(OnlineAssignService {
            state,
            measure,
            config,
            current: Mutex::new(Arc::new(service)),
        })
    }

    /// The current service snapshot. Cheap (one brief lock around an
    /// `Arc` clone); hold the returned `Arc` for a whole batch and
    /// re-fetch per batch to observe model swaps.
    pub fn service(&self) -> Arc<AssignService<P, S>> {
        let guard = self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(&guard)
    }

    /// Serves one batch against the current snapshot (convenience for
    /// [`OnlineAssignService::service`] + [`AssignService::assign_batch`]).
    ///
    /// # Errors
    /// As [`AssignService::assign_batch`].
    pub fn assign_batch(&self, queries: &[P]) -> Result<ServeBatch, RockError> {
        self.service().assign_batch(queries)
    }

    /// Absorbs one batch of arrivals into the evolving model and — when
    /// the batch changed it (any point absorbed, or a re-merge ran) —
    /// swaps a freshly built service snapshot in for subsequent
    /// readers. The snapshot is built straight from the state's
    /// representative pools (no artifact round trip), before the swap
    /// lock is taken; the lock covers only the pointer store.
    ///
    /// # Errors
    /// As [`IncrementalRockState::update`] (the model may then be torn
    /// — discard and resume from the WAL; the published snapshot is
    /// unaffected), plus service rebuild errors.
    pub fn absorb_batch(
        &mut self,
        arrivals: &[P],
        governor: &RunGovernor,
    ) -> Result<UpdateOutcome, RockError> {
        let outcome = self.state.update(arrivals, &self.measure, governor)?;
        if outcome.absorbed > 0 || !outcome.remerged.is_empty() {
            let next = Arc::new(AssignService::from_labeler(
                self.state.labeler().clone(),
                self.measure.clone(),
                self.config.clone(),
            )?);
            let mut guard = self
                .current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *guard = next;
        }
        Ok(outcome)
    }

    /// The evolving model behind the service (read access to clusters,
    /// provenance and the update WAL).
    pub fn state(&self) -> &IncrementalRockState<P> {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::engine::model::ModelFit;
    use crate::governor::CancellationToken;
    use crate::points::Transaction;
    use crate::report::RunReport;
    use crate::similarity::Jaccard;

    fn sample_artifact() -> ModelArtifact {
        let fit = ModelFit {
            clustering: Clustering::new(vec![vec![0, 1, 2], vec![3, 4]], vec![]),
            dendrogram: None,
            report: RunReport::new(),
        };
        let labeler: Labeler<Transaction> = Labeler::from_sets(
            vec![
                vec![
                    Transaction::from([0, 1, 2]),
                    Transaction::from([0, 1, 3]),
                    Transaction::from([0, 2, 3]),
                ],
                vec![Transaction::from([10, 11, 12]), Transaction::from([10, 11, 13])],
            ],
            0.5,
            1.0,
        )
        .unwrap();
        ModelArtifact::from_labeled("rock", &fit, &labeler, 1.0, None).unwrap()
    }

    fn queries() -> Vec<Transaction> {
        vec![
            Transaction::from([0, 1, 2, 3]), // cluster 0
            Transaction::from([10, 11]),     // cluster 1
            Transaction::from([77, 78]),     // outlier
        ]
    }

    #[test]
    fn assign_batch_matches_live_labeler() {
        let artifact = sample_artifact();
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&artifact, Jaccard, ServeConfig::default()).unwrap();
        let batch = service.assign_batch(&queries()).unwrap();
        let live: Labeler<Transaction> = artifact.labeler().unwrap();
        let expected: Vec<Option<usize>> = queries()
            .iter()
            .map(|q| live.label_point(q, &Jaccard))
            .collect();
        assert_eq!(batch.assignments, expected);
        assert_eq!(batch.assignments, vec![Some(0), Some(1), None]);
        assert_eq!(batch.report.queries, 3);
        assert_eq!(batch.report.assigned, 2);
        assert_eq!(batch.report.unassigned, 1);
        assert_eq!(batch.report.records_quarantined, 0);
        assert!(batch.report.degraded.is_none());
    }

    #[test]
    fn tripped_deadline_degrades_to_centroid_and_completes() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        let governor = RunGovernor::unlimited()
            .with_check_every(1)
            .with_time_budget(Duration::ZERO);
        governor.arm();
        std::thread::sleep(Duration::from_millis(1));
        let batch = service.assign_batch_governed(&queries(), &governor).unwrap();
        let note = batch.report.degraded.expect("deadline must be recorded");
        assert_eq!(note.at_query, 0);
        assert_eq!(note.reason, TripReason::DeadlineExceeded);
        // The whole batch was served via centroids and still completed.
        assert_eq!(batch.assignments.len(), 3);
        // Centroid of cluster 0 reps {0,1,2},{0,1,3},{0,2,3} is {0,1,2,3};
        // of cluster 1 reps it is {10,11}. The clean queries still land.
        assert_eq!(batch.assignments[0], Some(0));
        assert_eq!(batch.assignments[1], Some(1));
        assert_eq!(batch.assignments[2], None);
    }

    #[test]
    fn cancellation_aborts_even_under_centroid_policy() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        let token = CancellationToken::new();
        token.cancel();
        let governor = RunGovernor::unlimited()
            .with_check_every(1)
            .with_cancel_token(token);
        assert!(matches!(
            service.assign_batch_governed(&queries(), &governor),
            Err(RockError::Interrupted {
                reason: TripReason::Cancelled,
                ..
            })
        ));
    }

    /// Jaccard, except any transaction containing the marker item
    /// evaluates to NaN — a deterministic stand-in for a degenerate
    /// user measure.
    struct NanOn(u32);

    impl Similarity<Transaction> for NanOn {
        fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
            if a.items().contains(&self.0) || b.items().contains(&self.0) {
                f64::NAN
            } else {
                Jaccard.similarity(a, b)
            }
        }
    }

    #[test]
    fn non_finite_queries_are_quarantined_not_fatal() {
        let service: AssignService<Transaction, NanOn> =
            AssignService::new(&sample_artifact(), NanOn(99), ServeConfig::default()).unwrap();
        let mut qs = queries();
        qs.insert(1, Transaction::from([99, 0, 1]));
        let batch = service.assign_batch(&qs).unwrap();
        assert_eq!(batch.assignments, vec![Some(0), None, Some(1), None]);
        assert_eq!(batch.report.records_quarantined, 1);
        assert_eq!(batch.report.quarantined.len(), 1);
        assert_eq!(batch.report.quarantined[0].line, 1);
        assert!(batch.report.quarantined[0].reason.contains("non-finite"));
        assert_eq!(batch.report.assigned, 2);
        assert_eq!(batch.report.unassigned, 1);
    }

    #[test]
    fn quarantine_detail_is_capped_but_count_is_exact() {
        let service: AssignService<Transaction, NanOn> =
            AssignService::new(&sample_artifact(), NanOn(99), ServeConfig::default()).unwrap();
        let n = QUARANTINE_DETAIL_CAP as u32 + 5;
        let qs: Vec<Transaction> = (0..n).map(|i| Transaction::from([99, i])).collect();
        let batch = service.assign_batch(&qs).unwrap();
        assert_eq!(batch.report.records_quarantined, u64::from(n));
        assert_eq!(batch.report.quarantined.len(), QUARANTINE_DETAIL_CAP);
        let last = batch.report.quarantined.last().unwrap();
        assert_eq!(last.line, QUARANTINE_DETAIL_CAP as u64 - 1);
    }

    #[test]
    fn lifetime_stats_accumulate_across_batches() {
        let service: AssignService<Transaction, NanOn> =
            AssignService::new(&sample_artifact(), NanOn(99), ServeConfig::default()).unwrap();
        assert_eq!(service.lifetime_stats(), (ServeStats::default(), vec![]));
        service.assign_batch(&queries()).unwrap();
        let mut qs = queries();
        qs.push(Transaction::from([99, 1]));
        service.assign_batch(&qs).unwrap();
        let (stats, notes) = service.lifetime_stats();
        assert_eq!(
            stats,
            ServeStats {
                batches: 2,
                queries: 7,
                assigned: 4,
                unassigned: 2,
                quarantined: 1,
                degraded_batches: 0,
            }
        );
        assert!(notes.is_empty());
        assert_eq!(stats.to_string(), "2 batches (0 degraded): 7 queries = 4 assigned + 2 unassigned + 1 quarantined");
    }

    #[test]
    fn aborted_batches_do_not_count() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        let token = CancellationToken::new();
        token.cancel();
        let governor = RunGovernor::unlimited()
            .with_check_every(1)
            .with_cancel_token(token);
        assert!(service.assign_batch_governed(&queries(), &governor).is_err());
        assert_eq!(service.lifetime_stats().0, ServeStats::default());
    }

    #[test]
    fn degradation_log_is_capped_most_recent_kept() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        for round in 0..(DEGRADATION_LOG_CAP as u64 + 3) {
            let governor = RunGovernor::unlimited()
                .with_check_every(1)
                .with_time_budget(Duration::ZERO);
            governor.arm();
            std::thread::sleep(Duration::from_millis(1));
            let qs = queries()[..1 + (round as usize % 2)].to_vec();
            service.assign_batch_governed(&qs, &governor).unwrap();
        }
        let (stats, notes) = service.lifetime_stats();
        assert_eq!(stats.degraded_batches, DEGRADATION_LOG_CAP as u64 + 3);
        assert_eq!(stats.batches, DEGRADATION_LOG_CAP as u64 + 3);
        assert_eq!(notes.len(), DEGRADATION_LOG_CAP);
        for note in &notes {
            assert_eq!(note.reason, TripReason::DeadlineExceeded);
        }
    }

    #[test]
    fn clone_snapshots_then_counts_independently() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        service.assign_batch(&queries()).unwrap();
        let fork = service.clone();
        assert_eq!(fork.lifetime_stats(), service.lifetime_stats());
        fork.assign_batch(&queries()).unwrap();
        assert_eq!(fork.lifetime_stats().0.batches, 2);
        assert_eq!(service.lifetime_stats().0.batches, 1);
    }

    #[test]
    fn concurrent_batches_keep_exact_totals() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = &service;
                scope.spawn(move || {
                    for _ in 0..25 {
                        service.assign_batch(&queries()).unwrap();
                    }
                });
            }
        });
        let (stats, _) = service.lifetime_stats();
        assert_eq!(stats.batches, 100);
        assert_eq!(stats.queries, 300);
        assert_eq!(stats.assigned, 200);
        assert_eq!(stats.unassigned, 100);
    }

    /// An [`ArtifactSource`] that fails transiently `fail` times before
    /// serving the bytes.
    struct FlakySource {
        bytes: Vec<u8>,
        fail: u32,
        kind: std::io::ErrorKind,
    }

    impl ArtifactSource for FlakySource {
        fn fetch(&mut self) -> std::io::Result<Vec<u8>> {
            if self.fail > 0 {
                self.fail -= 1;
                Err(std::io::Error::from(self.kind))
            } else {
                Ok(self.bytes.clone())
            }
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
        }
    }

    #[test]
    fn transient_fetch_errors_are_retried() {
        let mut source = FlakySource {
            bytes: sample_artifact().to_bytes(),
            fail: 2,
            kind: std::io::ErrorKind::WouldBlock,
        };
        let (artifact, retries) = load_artifact_with_retry(&mut source, &fast_retry()).unwrap();
        assert_eq!(retries, 2);
        assert_eq!(artifact.model(), "rock");
    }

    #[test]
    fn exhausted_retries_and_hard_errors_are_typed() {
        let mut source = FlakySource {
            bytes: sample_artifact().to_bytes(),
            fail: 10,
            kind: std::io::ErrorKind::TimedOut,
        };
        assert!(matches!(
            load_artifact_with_retry(&mut source, &fast_retry()),
            Err(RockError::ArtifactIo { detail }) if detail.contains("after 3 retries")
        ));
        let mut source = FlakySource {
            bytes: Vec::new(),
            fail: 1,
            kind: std::io::ErrorKind::NotFound,
        };
        assert!(matches!(
            load_artifact_with_retry(&mut source, &fast_retry()),
            Err(RockError::ArtifactIo { detail }) if detail.contains("after 0 retries")
        ));
    }

    #[test]
    fn corruption_is_not_retried() {
        struct CountingSource {
            bytes: Vec<u8>,
            fetches: u32,
        }
        impl ArtifactSource for CountingSource {
            fn fetch(&mut self) -> std::io::Result<Vec<u8>> {
                self.fetches += 1;
                Ok(self.bytes.clone())
            }
        }
        let mut bytes = sample_artifact().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut source = CountingSource { bytes, fetches: 0 };
        assert!(load_artifact_with_retry(&mut source, &fast_retry()).is_err());
        assert_eq!(source.fetches, 1, "a deterministic reread cannot fix corruption");
    }

    #[test]
    fn from_source_builds_a_working_service() {
        let mut source = FlakySource {
            bytes: sample_artifact().to_bytes(),
            fail: 1,
            kind: std::io::ErrorKind::Interrupted,
        };
        let (service, retries): (AssignService<Transaction, Jaccard>, u64) =
            AssignService::from_source(&mut source, Jaccard, ServeConfig::default()).unwrap();
        assert_eq!(retries, 1);
        assert_eq!(service.num_clusters(), 2);
        let batch = service.assign_batch(&queries()).unwrap();
        assert_eq!(batch.assignments, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn concurrent_readers_agree() {
        let service: AssignService<Transaction, Jaccard> =
            AssignService::new(&sample_artifact(), Jaccard, ServeConfig::default()).unwrap();
        let qs = queries();
        let expected = service.assign_batch(&qs).unwrap().assignments;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (service, qs, expected) = (&service, &qs, &expected);
                    scope.spawn(move || {
                        for _ in 0..50 {
                            let batch = service.assign_batch(qs).unwrap();
                            assert_eq!(&batch.assignments, expected);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn transaction_centroid_is_majority_vote() {
        let reps = [
            Transaction::from([0, 1, 2]),
            Transaction::from([0, 1, 3]),
            Transaction::from([0, 2, 3]),
        ];
        // 0 in 3/3, 1 in 2/3, 2 in 2/3, 3 in 2/3 — all ≥ half.
        assert_eq!(
            Transaction::centroid(&reps),
            Some(Transaction::from([0, 1, 2, 3]))
        );
        let reps = [Transaction::from([5]), Transaction::from([6]), Transaction::from([5])];
        assert_eq!(Transaction::centroid(&reps), Some(Transaction::from([5])));
        assert_eq!(Transaction::centroid(&[]), None);
    }

    #[test]
    fn vec_f64_centroid_is_componentwise_mean() {
        let reps = [vec![1.0, 2.0], vec![3.0, 6.0]];
        assert_eq!(<Vec<f64> as Centroid>::centroid(&reps), Some(vec![2.0, 4.0]));
        assert_eq!(<Vec<f64> as Centroid>::centroid(&[]), None);
    }

    #[test]
    fn backoff_is_capped() {
        let retry = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(25),
        };
        assert_eq!(retry.backoff(0), Duration::from_millis(10));
        assert_eq!(retry.backoff(1), Duration::from_millis(20));
        assert_eq!(retry.backoff(2), Duration::from_millis(25));
        assert_eq!(retry.backoff(63), Duration::from_millis(25));
    }

    fn calm_policy() -> StalenessPolicy {
        StalenessPolicy {
            max_pending: 1_000_000,
            max_dirty_fraction: 1e9,
            ..StalenessPolicy::default()
        }
    }

    #[test]
    fn online_absorb_swaps_the_snapshot_without_touching_held_readers() {
        let artifact = sample_artifact();
        let mut online: OnlineAssignService<Transaction, Jaccard> =
            OnlineAssignService::new(&artifact, Jaccard, ServeConfig::default(), calm_policy())
                .unwrap();
        let before = online.service();

        let out = online
            .absorb_batch(&[Transaction::from([0, 1, 2])], &RunGovernor::unlimited())
            .unwrap();
        assert_eq!(out.absorbed, 1);
        let after = online.service();
        // The absorbed point produced a new snapshot; the old Arc still
        // serves the pre-update model untouched.
        assert!(!Arc::ptr_eq(&before, &after));
        let old_batch = before.assign_batch(&queries()).unwrap();
        assert_eq!(old_batch.assignments, vec![Some(0), Some(1), None]);
        let new_batch = after.assign_batch(&queries()).unwrap();
        assert_eq!(new_batch.assignments, vec![Some(0), Some(1), None]);
        // The evolving state recorded the arrival (point id 5).
        assert_eq!(online.state().clusters()[0], vec![0, 1, 2, 5]);
        assert_eq!(online.state().provenance().points_absorbed, 1);
    }

    #[test]
    fn online_rejected_only_batch_keeps_the_snapshot() {
        let artifact = sample_artifact();
        let mut online: OnlineAssignService<Transaction, Jaccard> =
            OnlineAssignService::new(&artifact, Jaccard, ServeConfig::default(), calm_policy())
                .unwrap();
        let before = online.service();
        let out = online
            .absorb_batch(&[Transaction::from([77, 78])], &RunGovernor::unlimited())
            .unwrap();
        assert_eq!((out.absorbed, out.rejected), (0, 1));
        // Outliers do not change the served representative pools: no swap.
        assert!(Arc::ptr_eq(&before, &online.service()));
        assert_eq!(online.state().outliers(), &[5]);
    }

    #[test]
    fn online_state_replays_to_the_served_model() {
        let artifact = sample_artifact();
        let mut online: OnlineAssignService<Transaction, Jaccard> =
            OnlineAssignService::new(&artifact, Jaccard, ServeConfig::default(), calm_policy())
                .unwrap();
        // {0,1,10,11} is no neighbor of the base pools; the absorbed
        // {0,1,10} and {0,10,11} each give it one, moving it to cluster 0
        // and then to the smaller pool of cluster 1.
        let mut qs = queries();
        qs.push(Transaction::from([0, 1, 10, 11]));
        let mut moving = Vec::new();
        for batch in [
            vec![
                Transaction::from([0, 1, 2]),
                Transaction::from([10, 11, 12]),
            ],
            vec![Transaction::from([0, 1, 10]), Transaction::from([77, 78])],
            vec![Transaction::from([0, 10, 11]), Transaction::from([0, 2, 3])],
        ] {
            online
                .absorb_batch(&batch, &RunGovernor::unlimited())
                .unwrap();
            // The published snapshot serves exactly what a service over
            // the persisted evolved model would.
            let persisted: AssignService<Transaction, Jaccard> = AssignService::new(
                &online.state().to_artifact().unwrap(),
                Jaccard,
                ServeConfig::default(),
            )
            .unwrap();
            let served = online.service().assign_batch(&qs).unwrap();
            assert_eq!(served, persisted.assign_batch(&qs).unwrap());
            moving.push(served.assignments[3]);
        }
        assert_eq!(moving, vec![None, Some(0), Some(1)]);
        let wal = online.state().wal().as_bytes().to_vec();
        let (replayed, truncated) =
            IncrementalRockState::<Transaction>::resume(&artifact, &wal, &Jaccard).unwrap();
        assert!(!truncated);
        assert_eq!(replayed.digest(), online.state().digest());
    }
}
