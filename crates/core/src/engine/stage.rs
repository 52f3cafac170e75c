//! The stage contract and the five concrete Fig.-2 stages.
//!
//! A stage is a plain struct carrying its inputs and knobs; running it
//! consumes it, reads/updates the run's [`Pipeline`], and returns its
//! typed output. Stages never place governor *entry* checkpoints
//! themselves — that is the pipeline runner's job
//! ([`crate::engine::Pipeline::stage`]) — but long-running stage kernels
//! keep their own in-loop checkpoints (merge batches, labeling batches).

use crate::algorithm::{RockAlgorithm, RockRun};
use crate::components::Components;
use crate::engine::pipeline::Pipeline;
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

    /// Executes the stage against the run's pipeline (governor, WAL,
    /// RNG, report).
    ///
    /// # Errors
    /// [`RockError::Interrupted`] from an in-stage governor checkpoint,
    /// or any stage-specific error (invalid labeling parameters, WAL
    /// corruption on resume, …).
    fn run(self, run: &mut Pipeline<'_>) -> Result<Self::Out, RockError>;
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

    fn run(self, run: &mut Pipeline<'_>) -> Result<Vec<usize>, RockError> {
        Ok(match self.sample_size {
            Some(size) if size < self.data_len => {
                crate::sampling::sample_indices(self.data_len, size, &mut run.rng)
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

    fn run(self, _run: &mut Pipeline<'_>) -> Result<NeighborGraph, RockError> {
        Ok(NeighborGraph::build(self.sim, self.theta, self.threads))
    }
}

/// Computes the link matrix (§3.2, §4.4) with the auto-chosen kernel,
/// applying the proactive [`DegradationPolicy::SparseLinks`] downshift:
/// if the dense kernel was chosen but its bit-row arena would exceed the
/// memory budget, the stage forces the sparse kernel instead
/// and records the downshift in the report's degradation note.
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

    fn run(self, run: &mut Pipeline<'_>) -> Result<LinkMatrix, RockError> {
        let components = Components::of(self.graph);
        let mut kernel = LinkMatrix::choose_on(self.graph, &components);
        let arena = LinkMatrix::dense_arena_bytes(&components);
        if kernel == LinkKernel::Dense
            && run.config.degradation == DegradationPolicy::SparseLinks
            && run.governor.would_exceed(arena)
        {
            kernel = LinkKernel::Sparse;
            run.report.degraded = Some(DegradationNote {
                policy: DegradationPolicy::SparseLinks,
                phase: Phase::Links,
                reason: TripReason::MemoryBudgetExceeded,
                detail: format!(
                    "dense link kernel (~{arena} bytes over {} points) downshifted to sparse",
                    self.graph.len(),
                ),
            });
        }
        Ok(LinkMatrix::compute_kernel(
            self.graph,
            &components,
            self.threads,
            kernel,
        ))
    }
}

/// The governed §4.3 agglomeration, journaling to the pipeline's WAL
/// when one is attached.
///
/// With precomputed `links` the merge loop runs directly over them, and
/// the borrowed matrix stays alive for the whole loop; without, the
/// stage computes, charges and owns them (the journaled whole-data
/// path), and the merge loop frees them early. The entry
/// checkpoint reports under the phase whose memory charge it observes —
/// [`Phase::Links`] when the caller computed links, [`Phase::Neighbors`]
/// when only the graph was charged — exactly matching the pre-engine
/// driver's checkpoint labels. In-loop merge checkpoints inside the
/// algorithm report under [`Phase::Merge`].
#[derive(Debug)]
pub struct MergeStage<'a> {
    /// The θ-neighbor graph.
    pub graph: &'a NeighborGraph,
    /// Precomputed link matrix, borrowed for the whole merge loop;
    /// `None` has the stage compute its own.
    pub links: Option<&'a LinkMatrix>,
    /// The configured merge engine (goodness, k, outlier policy).
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

    fn run(self, run: &mut Pipeline<'_>) -> Result<RockRun, RockError> {
        if let Some(links) = self.links {
            return self.algorithm.run_governed(
                self.graph,
                links,
                &run.governor,
                run.wal.as_deref_mut(),
            );
        }
        // Self-computed links: checkpoint before computing them, charge
        // their bytes, and checkpoint again so the merge observes the
        // charge.
        run.governor.check(Phase::Links)?;
        let links = LinkMatrix::compute_auto(self.graph, self.threads);
        run.merge_charged(self.graph, links, self.algorithm)
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

    fn run(self, run: &mut Pipeline<'_>) -> Result<(Labeler<P>, Labeling), RockError> {
        let labeler = Labeler::new(
            self.sample,
            self.clusters,
            self.fraction,
            self.theta,
            self.ftheta,
            &mut run.rng,
        )?;
        let labeling = labeler.label_all(self.data, self.measure, self.threads, &run.governor)?;
        Ok((labeler, labeling))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::RunGovernor;
    use crate::rock::Rock;

    /// Six 40-point cliques with interleaved ids: point `p` lies in
    /// clique `p % 6`.
    fn interleaved_cliques() -> NeighborGraph {
        let n = 240;
        let lists = (0..n)
            .map(|i| ((i + 6)..n).step_by(6).map(|j| j as u32).collect())
            .collect();
        NeighborGraph::from_lists(lists, 0.5)
    }

    fn run_links(graph: &NeighborGraph, budget: u64) -> (LinkMatrix, Option<DegradationNote>) {
        let config = *Rock::builder()
            .degradation(DegradationPolicy::SparseLinks)
            .seed(1)
            .build()
            .unwrap()
            .config();
        let governor = RunGovernor::unlimited().with_memory_budget(budget);
        let mut run = Pipeline::new(config, governor);
        let links = LinksStage { graph, threads: 2 }.run(&mut run).unwrap();
        (links, run.report.degraded)
    }

    #[test]
    fn sparse_links_downshift_prices_the_component_arena() {
        let graph = interleaved_cliques();
        let components = Components::of(&graph);
        assert_eq!(
            LinkMatrix::choose_on(&graph, &components),
            LinkKernel::Dense
        );
        let arena = LinkMatrix::dense_arena_bytes(&components);
        let whole_graph = (graph.len() * graph.len() / 8) as u64;
        assert_eq!(arena, 6 * 40 * 8);
        assert!(arena < whole_graph);
        let reference = LinkMatrix::compute_sparse(&graph, 1);

        // A budget that fits the arena but not n²/8 rows keeps the
        // dense kernel.
        let (links, note) = run_links(&graph, (arena + whole_graph) / 2);
        assert!(note.is_none(), "unexpected downshift: {note:?}");
        assert_eq!(links, reference);

        let (links, note) = run_links(&graph, arena - 1);
        let note = note.expect("downshift recorded");
        assert_eq!(note.policy, DegradationPolicy::SparseLinks);
        assert_eq!(note.reason, TripReason::MemoryBudgetExceeded);
        assert!(
            note.detail.contains(&format!("~{arena} bytes")),
            "{}",
            note.detail
        );
        assert_eq!(links, reference);
    }
}
