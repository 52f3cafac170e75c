//! The thin pipeline runner: stage sequencing, phase checkpoints,
//! memory-charge windows and interruption/resume semantics.

use crate::algorithm::{RockAlgorithm, RockRun};
use crate::components::neighbor_components;
use crate::engine::ctx::RunCtx;
use crate::engine::stage::{
    LabelStage, LinksStage, MergeStage, NeighborsStage, ResumeStage, SampleStage, Stage,
};
use crate::error::RockError;
use crate::goodness::{ConstantF, Goodness};
use crate::governor::{DegradationNote, DegradationPolicy, RunGovernor, TripReason};
use crate::labeling::Labeler;
use crate::neighbors::NeighborGraph;
use crate::report::{PhaseTimer, RunReport};
use crate::rock::{RockConfig, RockResult};
use crate::similarity::{CheckedSimilarity, PairwiseSimilarity, PointsWith, Similarity};
use crate::wal::MergeWal;

/// The staged Fig.-2 runner.
///
/// A `Pipeline` owns one run's [`RunCtx`] and sequences
/// [`Stage`]s through it: every [`Pipeline::stage`] call places one
/// governor checkpoint at the stage boundary (under the stage's
/// [`Stage::phase`] label), and the composition methods ([`fit`],
/// [`fit_wal`], [`resume`], …) own the memory charge/release windows
/// around the big structures plus the degradation fallbacks that span
/// stages (subsample restart, connected-components finish).
///
/// Construct one per run via [`crate::rock::Rock::session`]; the
/// pipeline consumes itself on the composition entry points.
///
/// [`fit`]: Pipeline::fit
/// [`fit_wal`]: Pipeline::fit_wal
/// [`resume`]: Pipeline::resume
#[derive(Debug)]
pub struct Pipeline<'w> {
    config: RockConfig,
    ctx: RunCtx<'w>,
}

impl Pipeline<'static> {
    /// A pipeline over `config`, governed by `governor`.
    ///
    /// The context's RNG and degradation policy come from the config; no
    /// WAL is attached (see [`Pipeline::attach_wal`]).
    pub fn new(config: RockConfig, governor: RunGovernor) -> Self {
        Pipeline {
            config,
            ctx: RunCtx::new(governor, config.degradation, config.seed),
        }
    }
}

impl<'w> Pipeline<'w> {
    /// Attaches a merge WAL: journaled compositions ([`Pipeline::fit_wal`])
    /// append every merge decision to it, and resume compositions write
    /// their continuation log through it.
    pub fn attach_wal(self, wal: &'w mut MergeWal) -> Pipeline<'w> {
        Pipeline {
            config: self.config,
            ctx: self.ctx.with_wal(wal),
        }
    }

    /// The validated configuration this pipeline runs under.
    pub fn config(&self) -> &RockConfig {
        &self.config
    }

    /// The run context (governor, report accumulated so far, …).
    pub fn ctx(&self) -> &RunCtx<'w> {
        &self.ctx
    }

    /// Runs one stage with its entry checkpoint: the governor is checked
    /// under the stage's [`Stage::phase`] label, then the stage executes
    /// against the shared context.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] if a budget has tripped at the stage
    /// boundary, plus whatever the stage itself surfaces.
    pub fn stage<S: Stage>(&mut self, stage: S) -> Result<S::Out, RockError> {
        self.ctx.governor.check(stage.phase())?;
        stage.run(&mut self.ctx)
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

    /// Governed links + merge over a prebuilt graph, with the
    /// cross-stage degradation fallback: a non-cancellation trip under
    /// [`DegradationPolicy::Components`] abandons the agglomeration and
    /// finishes via connected components of the θ-neighbor graph
    /// (recorded in the context's degradation note).
    /// [`DegradationPolicy::Subsample`] is handled one level up, in
    /// [`Pipeline::fit`], where the sample can be re-drawn. Cancellation
    /// is authoritative and never degrades.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] when a budget trips and no policy
    /// absorbs it.
    fn merge_governed(&mut self, graph: &NeighborGraph) -> Result<RockRun, RockError> {
        let result = self.merge_budgeted(graph);
        match result {
            Err(RockError::Interrupted {
                phase,
                reason,
                resumable,
            }) if reason != TripReason::Cancelled => {
                if let DegradationPolicy::Components { min_cluster_size } = self.ctx.degradation {
                    let clustering = neighbor_components(graph, min_cluster_size);
                    self.ctx.note = Some(DegradationNote {
                        policy: self.ctx.degradation,
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
                } else {
                    Err(RockError::Interrupted {
                        phase,
                        reason,
                        resumable,
                    })
                }
            }
            other => other,
        }
    }

    /// The budget-observing core of [`Pipeline::merge_governed`]: the
    /// links stage (with its proactive sparse downshift), the link-bytes
    /// charge window, and the merge stage whose entry checkpoint
    /// observes that charge.
    fn merge_budgeted(&mut self, graph: &NeighborGraph) -> Result<RockRun, RockError> {
        let links = self.stage(LinksStage {
            graph,
            threads: self.config.threads,
        })?;
        let link_bytes = links.memory_bytes() as u64;
        self.ctx.governor.charge(link_bytes);
        let algorithm = self.algorithm();
        let result = self.stage(MergeStage {
            graph,
            links: Some(&links),
            algorithm,
            threads: self.config.threads,
        });
        self.ctx.governor.release(link_bytes);
        result
    }

    /// The full governed Fig.-2 composition: sample → neighbors → links
    /// → merge → label, with per-phase report timings, the non-finite
    /// similarity guard, and the configured degradation policy (the
    /// subsample restart lives here, where the sample can be re-drawn
    /// under a fresh budget that keeps the shared cancellation token).
    ///
    /// This composition never journals — the sampled pipeline prefers a
    /// restartable report over a merge log; any attached WAL is ignored.
    /// Use [`Pipeline::fit_wal`] for a journaled whole-data run.
    ///
    /// # Errors
    /// [`RockError::NonFiniteSimilarity`] if `measure` misbehaves,
    /// [`RockError::Interrupted`] if the governor trips with no policy
    /// able to absorb it.
    pub fn fit<P, S>(
        self,
        data: &[P],
        measure: &S,
    ) -> Result<(RockResult, RunReport), RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        let (result, report, _labeler) = self.fit_with_labeler(data, measure)?;
        Ok((result, report))
    }

    /// [`Pipeline::fit`], additionally returning the [`Labeler`] whose
    /// Lᵢ sets produced the labeling — the ingredient
    /// [`crate::artifact::ModelArtifact`] persists so that labeling
    /// through a reloaded artifact is bit-identical to this run.
    ///
    /// # Errors
    /// As [`Pipeline::fit`].
    pub fn fit_with_labeler<P, S>(
        mut self,
        data: &[P],
        measure: &S,
    ) -> Result<(RockResult, RunReport, Labeler<P>), RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        self.ctx.wal = None;
        let checked = CheckedSimilarity::new(measure);

        let t = PhaseTimer::start();
        let mut sample_indices = self.stage(SampleStage {
            data_len: data.len(),
            sample_size: self.config.sample_size,
        })?;
        // tidy-allow(panic-reach): SampleStage yields indices drawn from 0..data_len == data.len()
        let mut sample: Vec<P> = sample_indices.iter().map(|&i| data[i].clone()).collect();
        t.record(&mut self.ctx.report, "sample");

        let t = PhaseTimer::start();
        let outcome = {
            let pw = PointsWith::new(&sample, &checked);
            let graph = self.stage(NeighborsStage {
                sim: &pw,
                theta: self.config.theta,
                threads: self.config.threads,
            })?;
            if let Some(e) = checked.error() {
                return Err(e);
            }
            let graph_bytes = graph.memory_bytes() as u64;
            self.ctx.governor.charge(graph_bytes);
            // No explicit check here: a memory trip from the graph charge
            // is observed at the links-stage checkpoint inside, where the
            // degradation policies can still see the graph.
            let r = self.merge_governed(&graph);
            self.ctx.governor.release(graph_bytes);
            r
        };
        let sample_run = match outcome {
            Ok(run) => run,
            Err(RockError::Interrupted {
                phase,
                reason,
                resumable,
            }) if reason != TripReason::Cancelled => {
                if let DegradationPolicy::Subsample { fraction } = self.ctx.degradation {
                    let orig = sample.len();
                    let keep = ((orig as f64 * fraction).ceil() as usize)
                        .clamp(self.config.k.min(orig), orig);
                    let sub = crate::sampling::sample_indices(orig, keep, &mut self.ctx.rng);
                    // tidy-allow(panic-reach): sample_indices draws from 0..orig == sample.len() == sample_indices.len()
                    sample_indices = sub.iter().map(|&i| sample_indices[i]).collect();
                    sample = sub.iter().map(|&i| sample[i].clone()).collect();
                    let sub_note = Some(DegradationNote {
                        policy: self.ctx.degradation,
                        phase,
                        reason,
                        detail: format!(
                            "restarted on a {keep}-point subsample of the {orig}-point sample"
                        ),
                    });
                    // The retry drops the tripped budgets but keeps the
                    // shared cancellation token: cancellation stays
                    // authoritative. The original governor is restored
                    // for the labeling phase.
                    let retry =
                        RunGovernor::unlimited().with_cancel_token(self.ctx.governor.cancel_token());
                    let saved = std::mem::replace(&mut self.ctx.governor, retry);
                    let pw = PointsWith::new(&sample, &checked);
                    // The retry re-enters the neighbors stage without a
                    // fresh entry checkpoint or graph charge: its budgets
                    // were just dropped, and the original charge window
                    // already closed.
                    let graph = NeighborsStage {
                        sim: &pw,
                        theta: self.config.theta,
                        threads: self.config.threads,
                    }
                    .run(&mut self.ctx)?;
                    if let Some(e) = checked.error() {
                        return Err(e);
                    }
                    let run = self.merge_governed(&graph);
                    self.ctx.governor = saved;
                    // The run's provenance is the subsample note; any
                    // scratch note from the retry merge is discarded.
                    self.ctx.note = sub_note;
                    run?
                } else {
                    return Err(RockError::Interrupted {
                        phase,
                        reason,
                        resumable,
                    });
                }
            }
            Err(e) => return Err(e),
        };
        t.record(&mut self.ctx.report, "cluster");

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
        t.record(&mut self.ctx.report, "label");

        self.ctx.report.records_read = data.len() as u64;
        self.ctx.report.outliers = labeling.num_outliers as u64;
        self.ctx.report.degraded = self.ctx.note.take();
        Ok((
            RockResult {
                sample_indices,
                sample_run,
                labeling,
            },
            self.ctx.report,
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
    pub fn fit_wal<PS: PairwiseSimilarity + Sync>(
        mut self,
        sim: &PS,
    ) -> Result<RockRun, RockError> {
        let checked = CheckedSimilarity::new(sim);
        let graph = self.stage(NeighborsStage {
            sim: &checked,
            theta: self.config.theta,
            threads: self.config.threads,
        })?;
        if let Some(e) = checked.error() {
            return Err(e);
        }
        let graph_bytes = graph.memory_bytes() as u64;
        self.ctx.governor.charge(graph_bytes);
        let algorithm = self.algorithm();
        let result = self.stage(MergeStage {
            graph: &graph,
            links: None,
            algorithm,
            threads: self.config.threads,
        });
        self.ctx.governor.release(graph_bytes);
        result
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
    pub fn resume<PS: PairwiseSimilarity + Sync>(
        mut self,
        sim: &PS,
        wal_bytes: &[u8],
    ) -> Result<RockRun, RockError> {
        let graph = self.stage(NeighborsStage {
            sim,
            theta: self.config.theta,
            threads: self.config.threads,
        })?;
        // The rebuilt graph occupies the same memory as the original
        // run's: charge it against the budget exactly like fit_wal, so a
        // resume cannot silently escape the memory governor. The
        // recomputed links are charged inside RockAlgorithm::resume.
        let graph_bytes = graph.memory_bytes() as u64;
        self.ctx.governor.charge(graph_bytes);
        let algorithm = self.algorithm();
        let result = ResumeStage {
            wal_bytes,
            graph: Some(&graph),
            algorithm,
            threads: self.config.threads,
        }
        .run(&mut self.ctx);
        self.ctx.governor.release(graph_bytes);
        result
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
    pub fn resume_snapshot(mut self, wal_bytes: &[u8]) -> Result<RockRun, RockError> {
        let algorithm = self.algorithm();
        ResumeStage {
            wal_bytes,
            graph: None,
            algorithm,
            threads: self.config.threads,
        }
        .run(&mut self.ctx)
    }
}
