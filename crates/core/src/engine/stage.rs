//! The stage contract and the five concrete Fig.-2 stages.
//!
//! A stage is a plain struct carrying its inputs and knobs; running it
//! consumes it, reads/updates the shared [`RunCtx`], and returns its
//! typed output. Stages never place governor *entry* checkpoints
//! themselves — that is the pipeline runner's job
//! ([`crate::engine::Pipeline::stage`]) — but long-running stage kernels
//! keep their own in-loop checkpoints (merge batches, labeling batches).

use crate::algorithm::{RockAlgorithm, RockRun};
use crate::engine::ctx::RunCtx;
use crate::error::RockError;
use crate::governor::{DegradationNote, DegradationPolicy, Phase, TripReason};
use crate::labeling::{Labeler, Labeling};
use crate::links_matrix::{LinkKernel, LinkMatrix};
use crate::neighbors::NeighborGraph;
use crate::similarity::{PairwiseSimilarity, Similarity};

/// One step of the Fig.-2 pipeline.
///
/// Implementors are one-shot: `run` consumes the stage. The associated
/// `Out` type is the stage's product (sample indices, neighbor graph,
/// link matrix, merge run, labeling).
pub trait Stage {
    /// What the stage produces.
    type Out;

    /// The [`Phase`] this stage's *entry checkpoint* reports under.
    ///
    /// This is the phase label carried by an [`RockError::Interrupted`]
    /// raised at the stage boundary; it is chosen to match where the
    /// pre-engine driver placed the equivalent check (see the per-stage
    /// docs — the merge stage, for example, checkpoints under the phase
    /// whose memory charge it observes).
    fn phase(&self) -> Phase;

    /// Short stable stage name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Executes the stage against the shared run context.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] from an in-stage governor checkpoint,
    /// or any stage-specific error (invalid labeling parameters, WAL
    /// corruption on resume, …).
    fn run(self, ctx: &mut RunCtx<'_>) -> Result<Self::Out, RockError>;
}

/// Draws the Fig.-2 random sample from the run's RNG stream.
///
/// Produces indices into the input data. When no sample size is
/// configured (or it does not undercut the data), every index is kept —
/// the pipeline still runs uniformly through the labeling stage.
#[derive(Clone, Copy, Debug)]
pub struct SampleStage {
    /// Number of input records.
    pub data_len: usize,
    /// Configured sample size; `None` keeps all points.
    pub sample_size: Option<usize>,
}

impl Stage for SampleStage {
    type Out = Vec<usize>;

    fn phase(&self) -> Phase {
        Phase::Sample
    }

    fn name(&self) -> &'static str {
        "sample"
    }

    fn run(self, ctx: &mut RunCtx<'_>) -> Result<Vec<usize>, RockError> {
        Ok(match self.sample_size {
            Some(size) if size < self.data_len => {
                crate::sampling::sample_indices(self.data_len, size, &mut ctx.rng)
            }
            _ => (0..self.data_len).collect(),
        })
    }
}

/// Builds the θ-neighbor graph (§3.1). The builder runs serially at one
/// thread or below its parallel cutoff; the result is bit-identical for
/// every thread count.
#[derive(Debug)]
pub struct NeighborsStage<'a, PS> {
    /// Pairwise similarity source over the (sampled) points.
    pub sim: &'a PS,
    /// Similarity threshold θ.
    pub theta: f64,
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl<PS: PairwiseSimilarity + Sync> Stage for NeighborsStage<'_, PS> {
    type Out = NeighborGraph;

    fn phase(&self) -> Phase {
        Phase::Neighbors
    }

    fn name(&self) -> &'static str {
        "neighbors"
    }

    fn run(self, _ctx: &mut RunCtx<'_>) -> Result<NeighborGraph, RockError> {
        Ok(NeighborGraph::build_parallel(self.sim, self.theta, self.threads))
    }
}

/// Computes the link matrix (§3.2, §4.4) with the auto-chosen kernel,
/// applying the proactive [`DegradationPolicy::SparseLinks`] downshift:
/// if the dense kernel was chosen but its estimated footprint would
/// exceed the memory budget, the stage forces the sparse kernel instead
/// and records the downshift in the context's degradation note.
#[derive(Debug)]
pub struct LinksStage<'a> {
    /// The θ-neighbor graph to count common neighbors over.
    pub graph: &'a NeighborGraph,
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl Stage for LinksStage<'_> {
    type Out = LinkMatrix;

    fn phase(&self) -> Phase {
        Phase::Links
    }

    fn name(&self) -> &'static str {
        "links"
    }

    fn run(self, ctx: &mut RunCtx<'_>) -> Result<LinkMatrix, RockError> {
        let mut kernel = LinkMatrix::choose_kernel(self.graph);
        if kernel == LinkKernel::Dense
            && ctx.degradation == DegradationPolicy::SparseLinks
            && ctx
                .governor
                .would_exceed(LinkMatrix::estimated_dense_bytes(self.graph.len()))
        {
            kernel = LinkKernel::Sparse;
            ctx.note = Some(DegradationNote {
                policy: DegradationPolicy::SparseLinks,
                phase: Phase::Links,
                reason: TripReason::MemoryBudgetExceeded,
                detail: format!(
                    "dense link kernel (~{} bytes over {} points) downshifted to sparse",
                    LinkMatrix::estimated_dense_bytes(self.graph.len()),
                    self.graph.len(),
                ),
            });
        }
        Ok(LinkMatrix::compute_kernel(self.graph, self.threads, kernel))
    }
}

/// The governed §4.3 agglomeration, journaling to the context's WAL when
/// one is attached.
///
/// With precomputed `links` the merge loop runs directly over them;
/// without, the stage computes and charges them itself (the journaled
/// whole-data path). The entry checkpoint reports under the phase whose
/// memory charge it observes — [`Phase::Links`] when links were just
/// charged by the pipeline, [`Phase::Neighbors`] when only the graph
/// was — exactly matching the pre-engine driver's checkpoint labels.
/// In-loop merge checkpoints inside the algorithm report under
/// [`Phase::Merge`].
#[derive(Debug)]
pub struct MergeStage<'a> {
    /// The θ-neighbor graph.
    pub graph: &'a NeighborGraph,
    /// Precomputed link matrix, if the pipeline already charged one.
    pub links: Option<&'a LinkMatrix>,
    /// The configured merge engine (goodness, k, outlier policy, hasher).
    pub algorithm: RockAlgorithm,
    /// Worker threads for the self-computed-links path.
    pub threads: usize,
}

impl Stage for MergeStage<'_> {
    type Out = RockRun;

    fn phase(&self) -> Phase {
        if self.links.is_some() {
            Phase::Links
        } else {
            Phase::Neighbors
        }
    }

    fn name(&self) -> &'static str {
        "merge"
    }

    fn run(self, ctx: &mut RunCtx<'_>) -> Result<RockRun, RockError> {
        if let Some(links) = self.links {
            return self
                .algorithm
                .run_governed(self.graph, links, &ctx.governor, ctx.wal.as_deref_mut());
        }
        // Self-computed links: checkpoint before computing them, charge
        // their bytes, and checkpoint again so the merge observes the
        // charge.
        ctx.governor.check(Phase::Links)?;
        let links = LinkMatrix::compute_auto(self.graph, self.threads);
        let link_bytes = links.memory_bytes() as u64;
        ctx.governor.charge(link_bytes);
        let result = ctx.governor.check(Phase::Links).and_then(|()| {
            self.algorithm
                .run_governed(self.graph, &links, &ctx.governor, ctx.wal.as_deref_mut())
        });
        ctx.governor.release(link_bytes);
        result
    }
}

/// Labels every input point against the clustered sample (§4.6),
/// drawing the per-cluster labeling sets Lᵢ from the run's RNG stream
/// and checking the governor every labeling batch.
#[derive(Debug)]
pub struct LabelStage<'a, P, S> {
    /// The clustered sample points.
    pub sample: &'a [P],
    /// The sample clustering (sample-relative point ids).
    pub clusters: &'a [Vec<u32>],
    /// The full data set to label.
    pub data: &'a [P],
    /// The similarity measure.
    pub measure: &'a S,
    /// Fraction of each cluster used as its labeling set.
    pub fraction: f64,
    /// Similarity threshold θ.
    pub theta: f64,
    /// Resolved `f(θ)` for the labeling normalisation.
    pub ftheta: f64,
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl<P, S> Stage for LabelStage<'_, P, S>
where
    P: Clone + Sync,
    S: Similarity<P> + Sync,
{
    /// The drawn labeler travels with the labeling so callers can
    /// persist the exact Lᵢ sets (see [`crate::artifact`]) — labeling
    /// through a reloaded artifact is then bit-identical to this run.
    type Out = (Labeler<P>, Labeling);

    fn phase(&self) -> Phase {
        Phase::Labeling
    }

    fn name(&self) -> &'static str {
        "label"
    }

    fn run(self, ctx: &mut RunCtx<'_>) -> Result<(Labeler<P>, Labeling), RockError> {
        let labeler = Labeler::new(
            self.sample,
            self.clusters,
            self.fraction,
            self.theta,
            self.ftheta,
            &mut ctx.rng,
        )?;
        let labeling = labeler.label_all(self.data, self.measure, self.threads, &ctx.governor)?;
        Ok((labeler, labeling))
    }
}

/// Replays an interrupted run's merge WAL to a bit-identical final
/// clustering, optionally writing a fresh continuation log to the
/// context's WAL handle.
///
/// With `graph` the links are recomputed and the replay is validated
/// against them; without, the merge state is restored from the log's
/// latest snapshot (failing with [`RockError::WalMismatch`] if there is
/// none). Callers invoke this stage without a pipeline entry checkpoint:
/// its first governor observation happens inside the replayed merge
/// loop, which keeps a re-interrupted resume `resumable`.
#[derive(Debug)]
pub struct ResumeStage<'a> {
    /// Bytes of the interrupted run's merge WAL.
    pub wal_bytes: &'a [u8],
    /// The rebuilt θ-neighbor graph, when the original data is at hand.
    pub graph: Option<&'a NeighborGraph>,
    /// The configured merge engine (must match the interrupted run).
    pub algorithm: RockAlgorithm,
    /// Worker threads for link recomputation.
    pub threads: usize,
}

impl Stage for ResumeStage<'_> {
    type Out = RockRun;

    fn phase(&self) -> Phase {
        Phase::Merge
    }

    fn name(&self) -> &'static str {
        "resume"
    }

    fn run(self, ctx: &mut RunCtx<'_>) -> Result<RockRun, RockError> {
        self.algorithm.resume(
            self.wal_bytes,
            self.graph,
            self.threads,
            &ctx.governor,
            ctx.wal.as_deref_mut(),
        )
    }
}
