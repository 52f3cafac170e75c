//! The end-to-end ROCK driver (Fig. 2): draw a random sample, cluster it
//! with links, label the remaining data.
//!
//! [`Rock`] is configured through [`RockBuilder`]; see the crate docs for
//! a worked example. Every entry point ([`Rock::cluster`], [`Rock::run`],
//! [`Rock::cluster_wal`], the resume calls) is a governed, checked
//! one-liner over the staged [`crate::engine::Pipeline`], with the
//! thread count and governor taken from the driver's configuration;
//! [`Rock::session`] hands out the pipeline directly for custom stage
//! compositions.

use crate::algorithm::{OutlierPolicy, RockRun, WeedPolicy};
use crate::cluster::Clustering;
use crate::engine::Pipeline;
use crate::error::RockError;
use crate::goodness::{BasketF, FTheta, GoodnessKind};
use crate::governor::{DegradationPolicy, RunGovernor};
use crate::labeling::Labeling;
use crate::report::RunReport;
use crate::similarity::{PointsWith, Similarity};
use crate::wal::MergeWal;

/// Validated configuration of a ROCK run.
#[derive(Clone, Copy, Debug)]
pub struct RockConfig {
    /// Similarity threshold θ for the neighbor definition (§3.1).
    pub theta: f64,
    /// Desired number of clusters `k`. A hint: ROCK may stop with more
    /// clusters when links run out, or fewer after outlier weeding (§5.2).
    pub k: usize,
    /// Resolved `f(θ)` (§3.3).
    pub ftheta: f64,
    /// Normalized (paper) or raw-link (ablation) merge goodness.
    pub goodness_kind: GoodnessKind,
    /// Outlier handling (§4.6).
    pub outliers: OutlierPolicy,
    /// Sample size for the Fig.-2 pipeline; `None` clusters all points.
    pub sample_size: Option<usize>,
    /// Fraction of each cluster used as the labeling set Lᵢ (§4.6).
    pub labeling_fraction: f64,
    /// RNG seed for sampling/labeling; `None` seeds from the OS.
    pub seed: Option<u64>,
    /// Optional hash seed. It reaches no computation (no fit path holds
    /// a hash map it could seed), so results are bit-identical for every
    /// value; it is kept only because model artifacts and update-log
    /// fingerprints persist it.
    pub hash_seed: Option<u64>,
    /// Worker threads for the neighbor, link and labeling kernels
    /// (1 = serial). Results are bit-identical for every value.
    pub threads: usize,
    /// What to do when a governor budget trips mid-clustering
    /// (default [`DegradationPolicy::Fail`]).
    pub degradation: DegradationPolicy,
}

/// Builder for [`Rock`]. All parameters have paper-faithful defaults:
/// θ = 0.5, k = 2, `f(θ) = (1−θ)/(1+θ)`, normalized goodness,
/// neighbor-less points pruned as outliers, no sampling, labeling
/// fraction 0.25, one thread.
#[derive(Debug)]
pub struct RockBuilder {
    /// Every setting but `f(θ)`, which `build` resolves from `ftheta`.
    config: RockConfig,
    ftheta: Box<dyn FThetaDyn>,
    governor: RunGovernor,
}

/// Object-safe shim over [`FTheta`] so the builder can hold any estimate.
trait FThetaDyn: std::fmt::Debug {
    fn f_dyn(&self, theta: f64) -> f64;
}

impl<T: FTheta + std::fmt::Debug> FThetaDyn for T {
    fn f_dyn(&self, theta: f64) -> f64 {
        self.f(theta)
    }
}

impl Default for RockBuilder {
    fn default() -> Self {
        RockBuilder {
            config: RockConfig {
                theta: 0.5,
                k: 2,
                ftheta: f64::NAN,
                goodness_kind: GoodnessKind::Normalized,
                outliers: OutlierPolicy::default(),
                sample_size: None,
                labeling_fraction: 0.25,
                seed: None,
                hash_seed: None,
                threads: 1,
                degradation: DegradationPolicy::Fail,
            },
            ftheta: Box::new(BasketF),
            governor: RunGovernor::unlimited(),
        }
    }
}

impl RockBuilder {
    /// Sets the similarity threshold θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.config.theta = theta;
        self
    }

    /// Sets the desired number of clusters.
    pub fn clusters(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the neighbor-exponent estimate `f(θ)` (default [`BasketF`]).
    pub fn f_theta<F: FTheta + std::fmt::Debug + 'static>(mut self, f: F) -> Self {
        self.ftheta = Box::new(f);
        self
    }

    /// Selects the merge-goodness variant (default normalized).
    pub fn goodness_kind(mut self, kind: GoodnessKind) -> Self {
        self.config.goodness_kind = kind;
        self
    }

    /// Enables mid-flight weeding: stop at `stop_multiple · k` clusters and
    /// discard those smaller than `min_cluster_size` (§4.6).
    pub fn weed_outliers(mut self, stop_multiple: f64, min_cluster_size: usize) -> Self {
        self.config.outliers.weed = Some(WeedPolicy {
            stop_multiple,
            min_cluster_size,
        });
        self
    }

    /// Clusters a random sample of this size instead of the full data
    /// (Fig. 2); remaining points are assigned in the labeling phase.
    pub fn sample_size(mut self, size: usize) -> Self {
        self.config.sample_size = Some(size);
        self
    }

    /// Sets the fraction of each cluster used for labeling (§4.6).
    pub fn labeling_fraction(mut self, fraction: f64) -> Self {
        self.config.labeling_fraction = fraction;
        self
    }

    /// Fixes the RNG seed for reproducible sampling and labeling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = Some(seed);
        self
    }

    /// Records a hash seed. It reaches no computation, so the clustering
    /// does not depend on it (the equivalence proptests sweep it); it is
    /// kept only because model artifacts and update-log fingerprints
    /// persist it.
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.config.hash_seed = Some(seed);
        self
    }

    /// Sets the number of worker threads used by the neighbor, link and
    /// labeling kernels. The clustering result does not depend on it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Installs the [`RunGovernor`] every run is checked against: its
    /// wall-clock deadline (measured from the run's first checkpoint),
    /// charged-memory budget for the neighbor graph and link
    /// structures, cancellation token and injected kill points.
    /// Default: [`RunGovernor::unlimited`].
    pub fn governor(mut self, governor: RunGovernor) -> Self {
        self.governor = governor;
        self
    }

    /// Selects what happens when a governor budget trips mid-clustering
    /// (default: fail with [`RockError::Interrupted`]). See
    /// [`DegradationPolicy`] and `DESIGN.md` §"Failure model".
    pub fn degradation(mut self, policy: DegradationPolicy) -> Self {
        self.config.degradation = policy;
        self
    }

    /// Validates the configuration and produces the driver.
    pub fn build(self) -> Result<Rock, RockError> {
        let mut config = self.config;
        if !(0.0..=1.0).contains(&config.theta) {
            return Err(RockError::InvalidTheta(config.theta));
        }
        if config.k == 0 {
            return Err(RockError::InvalidK(config.k));
        }
        config.ftheta = self.ftheta.f_dyn(config.theta);
        if !config.ftheta.is_finite() || config.ftheta < 0.0 {
            return Err(RockError::InvalidFTheta(config.ftheta));
        }
        if !(config.labeling_fraction > 0.0 && config.labeling_fraction <= 1.0) {
            return Err(RockError::InvalidLabelingFraction(config.labeling_fraction));
        }
        if let Some(s) = config.sample_size {
            if s < config.k {
                return Err(RockError::InvalidSampleSize {
                    sample_size: s,
                    k: config.k,
                });
            }
        }
        if let Some(w) = &config.outliers.weed {
            if w.stop_multiple < 1.0 {
                return Err(RockError::InvalidWeedMultiple(w.stop_multiple));
            }
        }
        if config.threads == 0 {
            return Err(RockError::InvalidThreads(config.threads));
        }
        if let DegradationPolicy::Subsample { fraction } = config.degradation {
            if !(fraction > 0.0 && fraction < 1.0) {
                return Err(RockError::InvalidSubsampleFraction(fraction));
            }
        }
        Ok(Rock {
            config,
            governor: self.governor,
        })
    }
}

/// The configured ROCK driver.
///
/// # Examples
/// ```
/// use rock_core::points::Transaction;
/// use rock_core::similarity::Jaccard;
/// use rock_core::rock::Rock;
///
/// let baskets = vec![
///     Transaction::from([1, 2, 3]),
///     Transaction::from([1, 2, 4]),
///     Transaction::from([1, 3, 4]),
///     Transaction::from([7, 8, 9]),
///     Transaction::from([7, 8, 10]),
///     Transaction::from([7, 9, 10]),
/// ];
/// let rock = Rock::builder().theta(0.5).clusters(2).build().unwrap();
/// let run = rock.cluster(&baskets, &Jaccard).unwrap();
/// assert_eq!(run.clustering.num_clusters(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Rock {
    config: RockConfig,
    /// Budgets/cancellation for governed entry points. Clones of a
    /// `Rock` share the same governor state (token, clock, memory meter).
    governor: RunGovernor,
}

/// Output of the full sampled pipeline ([`Rock::run`]).
#[derive(Clone, Debug)]
pub struct RockResult {
    /// Indices (into the input data) of the clustered sample.
    pub sample_indices: Vec<usize>,
    /// The clustering of the sample, with sample-relative point ids.
    pub sample_run: RockRun,
    /// Labeling of the *entire* input data set.
    pub labeling: Labeling,
}

impl RockResult {
    /// The clusters over the full data set (point ids index the input
    /// data), with labeling outliers in `outliers`.
    pub fn full_clustering(&self) -> Clustering {
        let k = self.labeling.cluster_counts.len();
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut outliers = Vec::new();
        for (p, a) in self.labeling.assignments.iter().enumerate() {
            match a {
                Some(c) => clusters[*c].push(p as u32),
                None => outliers.push(p as u32),
            }
        }
        Clustering::new(clusters, outliers)
    }
}

impl Rock {
    /// Starts building a driver.
    pub fn builder() -> RockBuilder {
        RockBuilder::default()
    }

    /// The validated configuration.
    pub fn config(&self) -> &RockConfig {
        &self.config
    }

    /// The governor shared by this driver's governed entry points.
    pub fn governor(&self) -> &RunGovernor {
        &self.governor
    }

    /// A staged [`Pipeline`] over this driver's configuration and
    /// governor — the engine behind every entry point, exposed for
    /// custom stage compositions ([`Pipeline::stage`] over the five
    /// stage structs, [`Pipeline::fit_with_labeler`]).
    ///
    /// A pairwise similarity source without points clusters through
    /// [`NeighborGraph::build`](crate::neighbors::NeighborGraph::build)
    /// and [`RockAlgorithm::run`](crate::algorithm::RockAlgorithm::run),
    /// as `examples/expert_similarity.rs` does.
    ///
    /// The pipeline's governor shares this driver's token, clock and
    /// memory meter.
    pub fn session(&self) -> Pipeline<'static> {
        Pipeline::new(self.config, self.governor.clone())
    }

    /// Clusters `points` in memory (no sampling/labeling): the
    /// θ-neighbor graph, links and the Fig.-3 merge loop
    /// (the journaled composition of [`Rock::cluster_wal`] with no WAL
    /// attached).
    ///
    /// The run uses the configured threads (the result does not depend
    /// on them) and is checked against the configured governor at every
    /// phase boundary and merge batch. The degradation policy does not
    /// apply, as for [`Rock::cluster_wal`].
    ///
    /// # Errors
    /// [`RockError::NonFiniteSimilarity`] if `measure` returned a
    /// NaN/±∞ for any pair (instead of silently dropping the pair from
    /// the neighbor graph), [`RockError::Interrupted`] when the governor
    /// trips.
    pub fn cluster<P, S>(&self, points: &[P], measure: &S) -> Result<RockRun, RockError>
    where
        S: Similarity<P> + Sync,
        P: Sync,
    {
        self.session().fit_wal(&PointsWith::new(points, measure))
    }

    /// The full Fig.-2 pipeline: draw a random sample (if configured),
    /// cluster it, then label all of `data`, returning the results with a
    /// structured [`RunReport`] (per-phase wall-clock timings and
    /// [`crate::perf`] work counters, degradation/interruption outcome,
    /// outlier count).
    ///
    /// Without a configured sample size the whole data set is clustered
    /// and the labeling phase still runs (useful for assigning outliers
    /// and for uniform reporting).
    ///
    /// The run is governed: the builder's deadline, memory budget and
    /// cancellation token are checked at every phase boundary, every
    /// merge batch and every labeling batch, and the configured
    /// [`DegradationPolicy`] is applied on a budget trip (recorded in the
    /// report's `degraded` note). Results do not depend on the thread
    /// count.
    ///
    /// # Errors
    /// Returns [`RockError::NonFiniteSimilarity`] if `measure` returned a
    /// non-finite value during clustering or labeling, and
    /// [`RockError::Interrupted`] if the governor tripped with no
    /// degradation policy able to absorb it.
    pub fn run<P, S>(&self, data: &[P], measure: &S) -> Result<(RockResult, RunReport), RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        let (result, report, _labeler) = self.session().fit_with_labeler(data, measure)?;
        Ok((result, report))
    }

    /// [`Rock::cluster`] while journaling every merge decision to `wal`.
    ///
    /// On interruption the error is [`RockError::Interrupted`] with
    /// `resumable: true` and `wal` holds a replayable prefix — persist it
    /// with [`MergeWal::write_to`] and continue later with
    /// [`Rock::resume_cluster`]. The degradation policy deliberately does
    /// *not* apply here: a WAL-journaled run prefers an exact resume over
    /// an approximate finish.
    ///
    /// # Errors
    /// As [`Rock::cluster`].
    pub fn cluster_wal<P, S>(
        &self,
        points: &[P],
        measure: &S,
        wal: &mut MergeWal,
    ) -> Result<RockRun, RockError>
    where
        S: Similarity<P> + Sync,
        P: Sync,
    {
        self.session()
            .attach_wal(Some(wal))
            .fit_wal(&PointsWith::new(points, measure))
    }

    /// Resumes an interrupted [`Rock::cluster_wal`] run from the bytes of
    /// its merge WAL, rebuilding the neighbor graph from `points` (which
    /// must be the same points, in the same order). The final clustering
    /// and merge trace are bit-identical to an uninterrupted run.
    ///
    /// A fresh self-contained continuation log is written to `wal_out`
    /// if given, so a re-interrupted resume can itself be resumed.
    ///
    /// # Errors
    /// [`RockError::WalCorrupt`] / [`RockError::WalMismatch`] for a
    /// damaged or foreign log, [`RockError::Interrupted`] if the
    /// governor trips again.
    pub fn resume_cluster<P, S>(
        &self,
        points: &[P],
        measure: &S,
        wal_bytes: &[u8],
        wal_out: Option<&mut MergeWal>,
    ) -> Result<RockRun, RockError>
    where
        S: Similarity<P> + Sync,
        P: Sync,
    {
        self.session()
            .attach_wal(wal_out)
            .resume(&PointsWith::new(points, measure), wal_bytes)
    }

    /// A fault-isolated shard supervisor over this driver's configuration
    /// and governor (see
    /// [`ShardSupervisor`](crate::engine::supervisor::ShardSupervisor)):
    /// the input is partitioned into deterministic shards, each shard
    /// runs the journaled pipeline under its own child governor with
    /// retry/resume/quarantine, and surviving shard clusters are merged
    /// by a coarse ROCK pass over their representative sets.
    ///
    /// # Errors
    /// [`RockError::InvalidShardCount`] for zero shards,
    /// [`RockError::InvalidLabelingFraction`] for a representative
    /// fraction outside `(0, 1]`, [`RockError::InvalidTheta`] for a
    /// merge θ outside `[0, 1]`.
    pub fn shard_supervisor(
        &self,
        shard: crate::engine::ShardConfig,
    ) -> Result<crate::engine::ShardSupervisor, RockError> {
        crate::engine::ShardSupervisor::new(self.config, shard, self.governor.clone())
    }

    /// Resumes from a snapshot-bearing WAL **without** the original data:
    /// the merge state is restored from the latest snapshot and links are
    /// not recomputed. Fails with [`RockError::WalMismatch`] if the log
    /// carries no snapshot.
    ///
    /// # Errors
    /// As [`Rock::resume_cluster`].
    pub fn resume_cluster_snapshot(
        &self,
        wal_bytes: &[u8],
        wal_out: Option<&mut MergeWal>,
    ) -> Result<RockRun, RockError> {
        self.session()
            .attach_wal(wal_out)
            .resume_snapshot(wal_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{CancellationToken, Phase, TripReason};
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PairwiseSimilarity};
    use std::time::Duration;

    fn two_basket_clusters(n_each: usize) -> Vec<Transaction> {
        // Cluster A over items 0..6, cluster B over items 100..106;
        // transactions are deterministic 3-subsets.
        let mut data = Vec::new();
        for c in 0..2u32 {
            let base = c * 100;
            let mut i = 0;
            'outer: for x in 0..6u32 {
                for y in (x + 1)..6 {
                    for z in (y + 1)..6 {
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

    #[test]
    fn builder_defaults_build() {
        let rock = Rock::builder().build().unwrap();
        assert_eq!(rock.config().theta, 0.5);
        assert_eq!(rock.config().k, 2);
        assert!((rock.config().ftheta - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            Rock::builder().theta(2.0).build(),
            Err(RockError::InvalidTheta(_))
        ));
        assert!(matches!(
            Rock::builder().clusters(0).build(),
            Err(RockError::InvalidK(0))
        ));
        assert!(matches!(
            Rock::builder().labeling_fraction(0.0).build(),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Rock::builder().clusters(10).sample_size(5).build(),
            Err(RockError::InvalidSampleSize { .. })
        ));
        assert!(matches!(
            Rock::builder().weed_outliers(0.5, 2).build(),
            Err(RockError::InvalidWeedMultiple(_))
        ));
        assert!(matches!(
            Rock::builder().threads(0).build(),
            Err(RockError::InvalidThreads(0))
        ));
    }

    #[test]
    fn cluster_separates_baskets() {
        let data = two_basket_clusters(20);
        let rock = Rock::builder().theta(0.5).clusters(2).build().unwrap();
        let run = rock.cluster(&data, &Jaccard).unwrap();
        assert_eq!(run.clustering.num_clusters(), 2);
        assert_eq!(run.clustering.sizes(), vec![20, 20]);
    }

    #[test]
    fn sampled_pipeline_labels_everything() {
        let data = two_basket_clusters(20);
        let rock = Rock::builder()
            .theta(0.5)
            .clusters(2)
            .sample_size(16)
            .labeling_fraction(1.0)
            .seed(42)
            .build()
            .unwrap();
        let (result, _) = rock.run(&data, &Jaccard).unwrap();
        assert_eq!(result.sample_indices.len(), 16);
        let full = result.full_clustering();
        assert_eq!(full.num_clusters(), 2);
        // Every point labeled; the two sides must not mix.
        assert_eq!(full.num_points(), data.len());
        for c in &full.clusters {
            let sides: std::collections::HashSet<bool> =
                c.iter().map(|&p| (p as usize) < 20).collect();
            assert_eq!(sides.len(), 1, "cluster mixes the two item universes");
        }
    }

    #[test]
    fn run_without_sampling_uses_all_points() {
        let data = two_basket_clusters(5);
        let rock = Rock::builder()
            .theta(0.5)
            .clusters(2)
            .seed(1)
            .labeling_fraction(1.0)
            .build()
            .unwrap();
        let (result, _) = rock.run(&data, &Jaccard).unwrap();
        assert_eq!(result.sample_indices.len(), data.len());
        assert_eq!(result.labeling.assignments.len(), data.len());
    }

    #[test]
    fn run_is_thread_count_invariant_and_reports() {
        let data = two_basket_clusters(20);
        let rock = |threads| {
            Rock::builder()
                .theta(0.5)
                .clusters(2)
                .sample_size(16)
                .labeling_fraction(1.0)
                .seed(7)
                .threads(threads)
                .build()
                .unwrap()
        };
        let (checked, report) = rock(1).run(&data, &Jaccard).unwrap();
        for threads in [2, 8] {
            let (result, threaded) = rock(threads).run(&data, &Jaccard).unwrap();
            assert_eq!(result.sample_indices, checked.sample_indices, "threads={threads}");
            assert_eq!(result.labeling, checked.labeling, "threads={threads}");
            assert_eq!(
                result.sample_run.merges, checked.sample_run.merges,
                "threads={threads}"
            );
            // Work counters are this thread's, workers folded in: exact.
            assert_eq!(threaded.phase_perf, report.phase_perf, "threads={threads}");
        }
        assert_eq!(report.records_read, data.len() as u64);
        assert_eq!(report.outliers, checked.labeling.num_outliers as u64);
        let phases: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(phases, vec!["sample", "cluster", "label"]);
        assert!(!report.degraded());
        // The cluster phase ran the link kernel, so its perf delta is
        // attributed in the report.
        let cluster = report
            .phase_counters("cluster")
            .expect("cluster phase records work counters");
        assert!(cluster.pairs_emitted > 0, "no link pairs counted: {cluster}");
        assert!(cluster.bytes_touched > 0, "no bytes counted: {cluster}");
    }

    #[test]
    fn nan_measure_is_a_typed_error_not_a_panic() {
        struct NanSim;
        impl Similarity<Transaction> for NanSim {
            fn similarity(&self, _: &Transaction, _: &Transaction) -> f64 {
                f64::NAN
            }
        }
        let data = two_basket_clusters(5);
        let rock = Rock::builder().theta(0.5).clusters(2).seed(1).build().unwrap();
        assert!(matches!(
            rock.cluster(&data, &NanSim),
            Err(RockError::NonFiniteSimilarity { .. })
        ));
        assert!(matches!(
            rock.run(&data, &NanSim),
            Err(RockError::NonFiniteSimilarity { .. })
        ));
    }

    #[test]
    fn nan_pairwise_source_is_a_typed_error() {
        struct NanPairs;
        impl PairwiseSimilarity for NanPairs {
            fn len(&self) -> usize {
                6
            }
            fn sim(&self, i: usize, j: usize) -> f64 {
                if i + j == 5 {
                    f64::NAN
                } else {
                    0.4
                }
            }
        }
        let rock = Rock::builder().theta(0.5).clusters(2).build().unwrap();
        assert!(matches!(
            rock.session().fit_wal(&NanPairs),
            Err(RockError::NonFiniteSimilarity { .. })
        ));
    }

    #[test]
    fn builder_validates_subsample_fraction() {
        for bad in [0.0, 1.0, -0.2, f64::NAN] {
            assert!(matches!(
                Rock::builder()
                    .degradation(DegradationPolicy::Subsample { fraction: bad })
                    .build(),
                Err(RockError::InvalidSubsampleFraction(_))
            ));
        }
        assert!(Rock::builder()
            .degradation(DegradationPolicy::Subsample { fraction: 0.5 })
            .build()
            .is_ok());
    }

    #[test]
    fn zero_deadline_interrupts_run() {
        let data = two_basket_clusters(10);
        let rock = Rock::builder()
            .seed(1)
            .governor(RunGovernor::unlimited().with_time_budget(Duration::ZERO))
            .build()
            .unwrap();
        assert!(matches!(
            rock.run(&data, &Jaccard),
            Err(RockError::Interrupted {
                reason: TripReason::DeadlineExceeded,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_interrupts_run() {
        let data = two_basket_clusters(10);
        let token = CancellationToken::new();
        let rock = Rock::builder()
            .seed(1)
            .governor(RunGovernor::unlimited().with_cancel_token(token.clone()))
            .build()
            .unwrap();
        token.cancel();
        assert!(matches!(
            rock.run(&data, &Jaccard),
            Err(RockError::Interrupted {
                reason: TripReason::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn memory_trip_without_policy_fails() {
        let data = two_basket_clusters(20);
        let rock = Rock::builder()
            .seed(1)
            .governor(RunGovernor::unlimited().with_memory_budget(1))
            .build()
            .unwrap();
        assert!(matches!(
            rock.run(&data, &Jaccard),
            Err(RockError::Interrupted {
                reason: TripReason::MemoryBudgetExceeded,
                ..
            })
        ));
    }

    #[test]
    fn components_degradation_finishes_on_memory_trip() {
        let data = two_basket_clusters(20);
        let rock = Rock::builder()
            .seed(1)
            .labeling_fraction(1.0)
            .governor(RunGovernor::unlimited().with_memory_budget(1))
            .degradation(DegradationPolicy::Components {
                min_cluster_size: 2,
            })
            .build()
            .unwrap();
        let (result, report) = rock.run(&data, &Jaccard).unwrap();
        let note = report.degraded.as_ref().expect("degradation note recorded");
        assert!(matches!(
            note.policy,
            DegradationPolicy::Components { min_cluster_size: 2 }
        ));
        assert_eq!(note.reason, TripReason::MemoryBudgetExceeded);
        assert!(report.degraded());
        // The components fast path still separates the two item universes.
        assert!(result.sample_run.merges.is_empty());
        let full = result.full_clustering();
        assert_eq!(full.num_clusters(), 2);
        for c in &full.clusters {
            let sides: std::collections::HashSet<bool> =
                c.iter().map(|&p| (p as usize) < 20).collect();
            assert_eq!(sides.len(), 1, "component mixes the two item universes");
        }
    }

    #[test]
    fn subsample_degradation_restarts_on_smaller_sample() {
        let data = two_basket_clusters(20);
        let rock = Rock::builder()
            .seed(1)
            .labeling_fraction(1.0)
            .governor(RunGovernor::unlimited().with_memory_budget(1))
            .degradation(DegradationPolicy::Subsample { fraction: 0.5 })
            .build()
            .unwrap();
        let (result, report) = rock.run(&data, &Jaccard).unwrap();
        // ceil(40 * 0.5) = 20 of the 40-point (unsampled) "sample".
        assert_eq!(result.sample_indices.len(), 20);
        let note = report.degraded.as_ref().expect("degradation note recorded");
        assert!(matches!(
            note.policy,
            DegradationPolicy::Subsample { .. }
        ));
        assert!(note.detail.contains("20-point subsample"), "{}", note.detail);
        // Everything still gets labeled.
        assert_eq!(result.labeling.assignments.len(), data.len());
    }

    #[test]
    fn cluster_wal_kill_and_resume_is_bit_identical() {
        let data = two_basket_clusters(20);
        let plain = Rock::builder().seed(1).build().unwrap();
        let baseline = plain.cluster(&data, &Jaccard).unwrap();

        let killed = Rock::builder()
            .seed(1)
            .governor(RunGovernor::unlimited().with_kill_at(Phase::Merge, 5))
            .build()
            .unwrap();
        let mut wal = MergeWal::new();
        let err = killed.cluster_wal(&data, &Jaccard, &mut wal).unwrap_err();
        assert!(matches!(
            err,
            RockError::Interrupted {
                phase: Phase::Merge,
                resumable: true,
                ..
            }
        ));

        let resumed = plain
            .resume_cluster(&data, &Jaccard, wal.as_bytes(), None)
            .unwrap();
        assert_eq!(resumed.clustering, baseline.clustering);
        assert_eq!(resumed.merges, baseline.merges);
        assert_eq!(resumed.initial_points, baseline.initial_points);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let data = two_basket_clusters(20);
        let make = || {
            Rock::builder()
                .theta(0.5)
                .clusters(2)
                .sample_size(16)
                .seed(7)
                .build()
                .unwrap()
                .run(&data, &Jaccard)
                .unwrap()
                .0
        };
        let (a, b) = (make(), make());
        assert_eq!(a.sample_indices, b.sample_indices);
        assert_eq!(a.labeling.assignments, b.labeling.assignments);
    }
}
