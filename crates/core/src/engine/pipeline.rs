//! The pipeline: one run's state, stage sequencing, phase checkpoints,
//! memory-charge windows and interruption/resume semantics.

use crate::algorithm::{RockAlgorithm, RockRun};
use crate::components::neighbor_components;
use crate::engine::stage::{
    LabelStage, LinksStage, MergeStage, NeighborsStage, SampleStage, Stage,
};
use crate::error::RockError;
use crate::goodness::{ConstantF, Goodness};
use crate::governor::{DegradationNote, DegradationPolicy, Phase, RunGovernor, TripReason};
use crate::labeling::Labeler;
use crate::links_matrix::LinkMatrix;
use crate::neighbors::NeighborGraph;
use crate::report::{PhaseTimer, RunReport};
use crate::rock::{RockConfig, RockResult};
use crate::similarity::{CheckedSimilarity, PairwiseSimilarity, PointsWith, Similarity};
use crate::wal::MergeWal;
use rand::{rngs::StdRng, SeedableRng};
use std::borrow::Cow;

/// One staged Fig.-2 run: everything the run carries between stages,
/// and the compositions that sequence the stages through it.
///
/// Every [`Pipeline::stage`] call places one governor checkpoint at the
/// stage boundary (under the stage's [`Stage::phase`] label) and hands
/// the stage this pipeline by mutable reference. The compositions
/// ([`Pipeline::fit_with_labeler`], and the crate-private journaled and
/// resume compositions behind [`crate::rock::Rock`]'s entry points) own
/// the memory charge/release windows around the big structures plus the
/// degradation fallbacks that span stages (subsample restart,
/// connected-components finish).
///
/// Construct one per run via [`crate::rock::Rock::session`]; the
/// compositions consume the pipeline.
#[derive(Debug)]
pub struct Pipeline<'w> {
    /// The validated configuration this run follows; the links stage
    /// reads its degradation policy.
    pub(crate) config: RockConfig,
    /// Budgets, cancellation and kill injection, checked at every stage
    /// entry and in the merge and labeling loops. Held by value: the
    /// governor is `Arc`-backed, so the subsample restart can swap in a
    /// retry governor while clones elsewhere keep sharing the original
    /// token, clock and memory meter.
    pub(crate) governor: RunGovernor,
    /// Merge write-ahead log, when the run journals its merge decisions
    /// (merge stage) or writes a continuation log (resume); `None`
    /// otherwise.
    pub(crate) wal: Option<&'w mut MergeWal>,
    /// The run's RNG stream. Sampling and labeling draw from this one
    /// stream in stage order, which is what makes a seeded governed run
    /// reproduce the plain driver's draws exactly.
    pub(crate) rng: StdRng,
    /// The report accumulated across stages: phase timings from the
    /// compositions, the degradation note from the links stage and the
    /// fallbacks.
    pub(crate) report: RunReport,
}

impl Pipeline<'static> {
    /// A pipeline over `config`, governed by `governor`, with an RNG
    /// seeded from `config.seed` (or from the OS when `None`) and no WAL
    /// attached (see [`Pipeline::attach_wal`]).
    pub(crate) fn new(config: RockConfig, governor: RunGovernor) -> Self {
        Pipeline {
            config,
            governor,
            wal: None,
            rng: match config.seed {
                Some(s) => StdRng::seed_from_u64(s),
                None => StdRng::from_os_rng(),
            },
            report: RunReport::new(),
        }
    }
}

impl<'w> Pipeline<'w> {
    /// Attaches a merge WAL (or none): journaled compositions
    /// ([`Pipeline::fit_wal`]) append every merge decision to it, and
    /// resume compositions write their continuation log through it.
    pub(crate) fn attach_wal(mut self, wal: Option<&'w mut MergeWal>) -> Self {
        self.wal = wal;
        self
    }

    /// Runs one stage with its entry checkpoint: the governor is checked
    /// under the stage's [`Stage::phase`] label, then the stage executes
    /// against this pipeline.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] if a budget has tripped at the stage
    /// boundary, plus whatever the stage itself surfaces.
    pub fn stage<S: Stage>(&mut self, stage: S) -> Result<S::Out, RockError> {
        self.governor.check(stage.phase())?;
        stage.run(self)
    }

    /// The merge engine configured for this run (goodness, `k`, outlier
    /// policy).
    fn algorithm(&self) -> RockAlgorithm {
        let goodness = Goodness::new(
            self.config.theta,
            ConstantF(self.config.ftheta),
            self.config.goodness_kind,
        );
        RockAlgorithm::new(goodness, self.config.k, self.config.outliers)
    }

    /// Builds the θ-neighbor graph over `sim` through the neighbors
    /// stage, then runs `then` over it with the graph's bytes charged to
    /// the governor — the one graph charge window of every composition.
    fn over_graph<PS: PairwiseSimilarity + Sync>(
        &mut self,
        sim: &PS,
        then: impl FnOnce(&mut Self, &NeighborGraph) -> Result<RockRun, RockError>,
    ) -> Result<RockRun, RockError> {
        let graph = self.stage(NeighborsStage {
            sim,
            theta: self.config.theta,
            threads: self.config.threads,
        })?;
        let graph_bytes = graph.memory_bytes() as u64;
        self.governor.charge(graph_bytes);
        let result = then(self, &graph);
        self.governor.release(graph_bytes);
        result
    }

    /// Neighbors → links → merge over one sample, with the non-finite
    /// similarity guard and the cross-stage degradation fallback: a
    /// non-cancellation trip under [`DegradationPolicy::Components`]
    /// abandons the agglomeration and finishes via connected components
    /// of the θ-neighbor graph (recorded in the report's degradation
    /// note). [`DegradationPolicy::Subsample`] is handled one level up,
    /// in [`Pipeline::fit_with_labeler`], where the sample can be
    /// re-drawn. Cancellation is authoritative and never degrades.
    ///
    /// # Errors
    /// [`RockError::NonFiniteSimilarity`] if `measure` misbehaved,
    /// [`RockError::Interrupted`] when a budget trips and no policy
    /// absorbs it.
    fn cluster_sample<P, S>(
        &mut self,
        sample: &[P],
        measure: &CheckedSimilarity<S>,
    ) -> Result<RockRun, RockError>
    where
        P: Sync,
        S: Similarity<P> + Sync,
    {
        self.over_graph(&PointsWith::new(sample, measure), |run, graph| {
            if let Some(e) = measure.error() {
                return Err(e);
            }
            // No explicit check here: a memory trip from the graph charge
            // is observed at the links-stage checkpoint inside, where the
            // degradation policies can still see the graph.
            let result = run.merge_budgeted(graph);
            let DegradationPolicy::Components { min_cluster_size } = run.config.degradation else {
                return result;
            };
            match result {
                Err(RockError::Interrupted { phase, reason, .. })
                    if reason != TripReason::Cancelled =>
                {
                    let clustering = neighbor_components(graph, min_cluster_size);
                    run.report.degraded = Some(DegradationNote {
                        policy: run.config.degradation,
                        phase,
                        reason,
                        detail: format!(
                            "link agglomeration abandoned; finished as {} connected components",
                            clustering.num_clusters()
                        ),
                    });
                    Ok(RockRun {
                        clustering,
                        merges: Vec::new(),
                        initial_points: Vec::new(),
                    })
                }
                other => other,
            }
        })
    }

    /// The budget-observing core of [`Pipeline::cluster_sample`]: the
    /// links stage (with its proactive sparse downshift), then the merge
    /// over the owned links in their charge window
    /// ([`Pipeline::merge_charged`]).
    fn merge_budgeted(&mut self, graph: &NeighborGraph) -> Result<RockRun, RockError> {
        let links = self.stage(LinksStage {
            graph,
            threads: self.config.threads,
        })?;
        let algorithm = self.algorithm();
        self.merge_charged(graph, links, algorithm)
    }

    /// The link-bytes charge window around a merge over owned `links`:
    /// charges their bytes, places the merge's entry checkpoint under
    /// [`Phase::Links`] so it observes that charge, and hands the matrix
    /// to the merge loop, which frees it early (`init_from_links`). The
    /// charge is released when the loop ends. Shared by
    /// [`Pipeline::merge_budgeted`] and
    /// [`MergeStage`]'s self-computed-links path.
    pub(super) fn merge_charged(
        &mut self,
        graph: &NeighborGraph,
        links: LinkMatrix,
        algorithm: RockAlgorithm,
    ) -> Result<RockRun, RockError> {
        let link_bytes = links.memory_bytes() as u64;
        self.governor.charge(link_bytes);
        let result = self.governor.check(Phase::Links).and_then(|()| {
            algorithm.run_links(
                graph,
                Cow::Owned(links),
                &self.governor,
                self.wal.as_deref_mut(),
            )
        });
        self.governor.release(link_bytes);
        result
    }

    /// The full governed Fig.-2 composition: sample → neighbors → links
    /// → merge → label, with per-phase report timings, the non-finite
    /// similarity guard, and the configured degradation policy (the
    /// subsample restart lives here, where the sample can be re-drawn
    /// under a fresh budget that keeps the shared cancellation token).
    /// Also returns the [`Labeler`] whose Lᵢ sets produced the labeling —
    /// the ingredient [`crate::artifact::ModelArtifact`] persists so that
    /// labeling through a reloaded artifact is bit-identical to this run.
    ///
    /// This composition never journals — the sampled pipeline prefers a
    /// restartable report over a merge log; any attached WAL is ignored.
    /// Use [`crate::rock::Rock::cluster_wal`] for a journaled whole-data
    /// run.
    ///
    /// # Errors
    /// [`RockError::NonFiniteSimilarity`] if `measure` misbehaves,
    /// [`RockError::Interrupted`] if the governor trips with no policy
    /// able to absorb it.
    pub fn fit_with_labeler<P, S>(
        mut self,
        data: &[P],
        measure: &S,
    ) -> Result<(RockResult, RunReport, Labeler<P>), RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        self.wal = None;
        let checked = CheckedSimilarity::new(measure);

        let t = PhaseTimer::start();
        let mut sample_indices = self.stage(SampleStage {
            data_len: data.len(),
            sample_size: self.config.sample_size,
        })?;
        // tidy-allow(panic-reach): SampleStage yields indices drawn from 0..data_len == data.len()
        let mut sample: Vec<P> = sample_indices.iter().map(|&i| data[i].clone()).collect();
        t.record(&mut self.report, "sample");

        let t = PhaseTimer::start();
        let sample_run = match (
            self.cluster_sample(&sample, &checked),
            self.config.degradation,
        ) {
            (
                Err(RockError::Interrupted { phase, reason, .. }),
                DegradationPolicy::Subsample { fraction },
            ) if reason != TripReason::Cancelled => {
                let orig = sample.len();
                let keep =
                    ((orig as f64 * fraction).ceil() as usize).clamp(self.config.k.min(orig), orig);
                let sub = crate::sampling::sample_indices(orig, keep, &mut self.rng);
                // tidy-allow(panic-reach): sample_indices draws from 0..orig == sample.len() == sample_indices.len()
                sample_indices = sub.iter().map(|&i| sample_indices[i]).collect();
                sample = sub.iter().map(|&i| sample[i].clone()).collect();
                let note = DegradationNote {
                    policy: self.config.degradation,
                    phase,
                    reason,
                    detail: format!(
                        "restarted on a {keep}-point subsample of the {orig}-point sample"
                    ),
                };
                // The retry drops the tripped budgets but keeps the
                // shared cancellation token: cancellation stays
                // authoritative, and is the only trip its entry
                // checkpoint and graph charge can observe. The original
                // governor is restored for the labeling phase.
                let retry =
                    RunGovernor::unlimited().with_cancel_token(self.governor.cancel_token());
                let saved = std::mem::replace(&mut self.governor, retry);
                let run = self.cluster_sample(&sample, &checked);
                self.governor = saved;
                // The run's provenance is the subsample note; any
                // scratch note from the retry is discarded.
                self.report.degraded = Some(note);
                run?
            }
            (outcome, _) => outcome?,
        };
        t.record(&mut self.report, "cluster");

        let t = PhaseTimer::start();
        let (labeler, labeling) = self.stage(LabelStage {
            sample: &sample,
            clusters: &sample_run.clustering.clusters,
            data,
            measure: &checked,
            fraction: self.config.labeling_fraction,
            theta: self.config.theta,
            ftheta: self.config.ftheta,
            threads: self.config.threads,
        })?;
        if let Some(e) = checked.error() {
            return Err(e);
        }
        t.record(&mut self.report, "label");

        self.report.records_read = data.len() as u64;
        self.report.outliers = labeling.num_outliers as u64;
        Ok((
            RockResult {
                sample_indices,
                sample_run,
                labeling,
            },
            self.report,
            labeler,
        ))
    }

    /// The whole-data composition: neighbors → links → merge, with the
    /// non-finite similarity guard, the graph bytes charged for the
    /// duration, and every merge decision appended to the attached WAL
    /// (if any). The degradation policy deliberately does *not* apply —
    /// a WAL-journaled run prefers an exact resume over an approximate
    /// finish, and an unjournaled one behaves the same way.
    ///
    /// # Errors
    /// [`RockError::NonFiniteSimilarity`] if `sim` returned a NaN/±∞
    /// for any pair, [`RockError::Interrupted`] when the governor trips
    /// (`resumable: true` once a WAL is being written).
    pub(crate) fn fit_wal<PS: PairwiseSimilarity + Sync>(
        mut self,
        sim: &PS,
    ) -> Result<RockRun, RockError> {
        let checked = CheckedSimilarity::new(sim);
        self.over_graph(&checked, |run, graph| {
            if let Some(e) = checked.error() {
                return Err(e);
            }
            let algorithm = run.algorithm();
            run.stage(MergeStage {
                graph,
                links: None,
                algorithm,
                threads: run.config.threads,
            })
        })
    }

    /// The resume composition: rebuild the θ-neighbor graph from `sim`
    /// (the same points, in the same order, as the interrupted run) and
    /// replay `wal_bytes` to a bit-identical final clustering, writing a
    /// continuation log through the attached WAL if one is present.
    ///
    /// # Errors
    /// [`RockError::WalCorrupt`] / [`RockError::WalMismatch`] for a
    /// damaged or foreign log, [`RockError::Interrupted`] if the
    /// governor trips again.
    pub(crate) fn resume<PS: PairwiseSimilarity + Sync>(
        mut self,
        sim: &PS,
        wal_bytes: &[u8],
    ) -> Result<RockRun, RockError> {
        // The rebuilt graph occupies the same memory as the original
        // run's: it is charged against the budget exactly like fit_wal,
        // so a resume cannot silently escape the memory governor. The
        // recomputed links are charged inside RockAlgorithm::resume,
        // whose first governor observation happens inside the replayed
        // merge loop (no entry checkpoint), keeping a re-interrupted
        // resume `resumable`.
        self.over_graph(sim, |run, graph| {
            run.algorithm().resume(
                wal_bytes,
                Some(graph),
                run.config.threads,
                &run.governor,
                run.wal.as_deref_mut(),
            )
        })
    }

    /// Resumes from a snapshot-bearing WAL without the original data:
    /// merge state is restored from the latest snapshot, links are not
    /// recomputed. No entry checkpoint is placed — the first governor
    /// observation happens inside the replayed merge loop, keeping a
    /// re-interrupted resume `resumable`.
    ///
    /// # Errors
    /// [`RockError::WalMismatch`] if the log carries no snapshot;
    /// otherwise as [`Pipeline::resume`].
    pub(crate) fn resume_snapshot(mut self, wal_bytes: &[u8]) -> Result<RockRun, RockError> {
        self.algorithm().resume(
            wal_bytes,
            None,
            self.config.threads,
            &self.governor,
            self.wal.as_deref_mut(),
        )
    }
}
