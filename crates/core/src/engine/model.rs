//! The uniform `fit → labels + report` contract shared by ROCK and the
//! traditional baseline algorithms.
//!
//! | Model | Crate | Data type `D` |
//! |---|---|---|
//! | ROCK ([`RockModel`]) | `rock-core` | `[P]` + any [`Similarity`] |
//! | centroid hierarchical | `rock-baselines` | `[Vec<f64>]` |
//! | single-link (MST) / group-average | `rock-baselines` | any `PairwiseSimilarity` |
//! | k-means | `rock-baselines` | `[Vec<f64>]` |
//! | k-modes | `rock-baselines` | `[CategoricalRecord]` |
//! | CLARANS | `rock-baselines` | any `PairwiseSimilarity` |
//! | DBSCAN | `rock-baselines` | any `PairwiseSimilarity` |
//!
//! `rock-eval` scores a [`ModelFit`] against ground truth and
//! `rock-bench` times one generically, so adding an algorithm to the
//! comparison is one trait impl, not a bespoke driver.
//!
//! [`RockModel`]: crate::engine::model::RockModel
//! [`Similarity`]: crate::similarity::Similarity

use crate::artifact::{ArtifactPoint, ModelArtifact};
use crate::cluster::Clustering;
use crate::dendrogram::Dendrogram;
use crate::error::RockError;
use crate::labeling::Labeler;
use crate::report::RunReport;
use crate::rock::Rock;
use crate::similarity::Similarity;

/// What any clustering model produces: a flat clustering, the merge
/// hierarchy when the algorithm has one, and the run's structured
/// report (per-phase timings, degradation/interruption outcome).
#[derive(Clone, Debug)]
pub struct ModelFit {
    /// The flat clustering over the input data (outliers separated).
    pub clustering: Clustering,
    /// The full merge tree, for hierarchical models whose trace can be
    /// replayed ([`Dendrogram::from_run`]); `None` for partitional
    /// models and weeded hierarchical runs.
    pub dendrogram: Option<Dendrogram>,
    /// Structured account of the run.
    pub report: RunReport,
}

impl ModelFit {
    /// Per-point cluster assignments over `n` points (`None` =
    /// outlier), the shape evaluation metrics consume.
    pub fn assignments(&self, n: usize) -> Vec<Option<usize>> {
        self.clustering.assignments(n)
    }
}

/// A clustering algorithm fit through the shared engine contract.
///
/// `D` is the unsized data view the model consumes (`[Vec<f64>]` for
/// geometric baselines, `[CategoricalRecord]` for k-modes, a
/// `PairwiseSimilarity` source for similarity-driven models). Models
/// are configured at construction and `fit` is reusable: each call is
/// an independent run. Only [`RockModel`] runs under a
/// [`crate::governor::RunGovernor`] (its [`Rock`]'s); the baselines run
/// to completion.
pub trait ClusterModel<D: ?Sized> {
    /// Short stable model name (`"rock"`, `"kmeans"`, …), used as the
    /// row label by evaluation and benchmark tables.
    fn name(&self) -> &'static str;

    /// Runs the model over `data`.
    ///
    /// # Errors
    /// For [`RockModel`], [`RockError::Interrupted`] when its governor
    /// trips, plus its input errors. The baselines never fail.
    fn fit(&self, data: &D) -> Result<ModelFit, RockError>;

    /// Persists `fit` as a durable model artifact at `path`, tagged
    /// with this model's [`name`](ClusterModel::name) (atomic
    /// write-then-rename; see [`ModelArtifact::save`]).
    ///
    /// The generic artifact carries the clustering, dendrogram and
    /// report but no representative sets; ROCK fits that should also be
    /// *servable* go through
    /// [`RockModel::fit_artifact`] instead.
    ///
    /// # Errors
    /// [`RockError::ArtifactIo`] on filesystem failure.
    fn save(&self, fit: &ModelFit, path: &std::path::Path) -> Result<(), RockError> {
        ModelArtifact::from_fit(self.name(), fit).save(path)
    }

    /// Loads a fit previously [`save`](ClusterModel::save)d by this
    /// model, re-validating the artifact end to end.
    ///
    /// # Errors
    /// [`RockError::ArtifactMismatch`] when the artifact was saved
    /// under a different model name; otherwise as
    /// [`ModelArtifact::load`].
    fn load(&self, path: &std::path::Path) -> Result<ModelFit, RockError> {
        let artifact = ModelArtifact::load(path)?;
        if artifact.model() != self.name() {
            return Err(RockError::ArtifactMismatch {
                detail: format!(
                    "artifact was saved by model \"{}\", not \"{}\"",
                    artifact.model(),
                    self.name()
                ),
            });
        }
        Ok(artifact.to_fit())
    }
}

/// ROCK as a [`ClusterModel`]: the full governed Fig.-2 pipeline
/// ([`crate::rock::Rock::run`]) with a user-chosen similarity
/// measure baked in.
#[derive(Clone, Debug)]
pub struct RockModel<S> {
    rock: Rock,
    measure: S,
}

impl<S> RockModel<S> {
    /// Wraps a configured driver and measure.
    pub fn new(rock: Rock, measure: S) -> Self {
        RockModel { rock, measure }
    }

    /// The underlying driver (e.g. to reach its governor's cancel
    /// token).
    pub fn rock(&self) -> &Rock {
        &self.rock
    }

    /// Fits like [`ClusterModel::fit`] and additionally captures the
    /// drawn per-cluster labeling sets Lᵢ into a *servable*
    /// [`ModelArtifact`] — labeling through the artifact (live or
    /// reloaded, any thread count) is bit-identical to this run.
    ///
    /// # Errors
    /// As [`ClusterModel::fit`], plus [`RockError::ArtifactMismatch`]
    /// when the labeler's cluster count differs from the fit's. That
    /// happens whenever a sample cluster receives no labeled point:
    /// [`crate::rock::RockResult::full_clustering`] drops the empty
    /// cluster, while the labeler keeps its Lᵢ set. Weeding outliers
    /// before the fit makes it rarer; the fix, one cluster identity
    /// from fit to serve, is ROADMAP item 1.
    pub fn fit_artifact<P>(&self, data: &[P]) -> Result<(ModelFit, ModelArtifact), RockError>
    where
        P: ArtifactPoint + Clone + Sync,
        S: Similarity<P> + Sync,
    {
        let (fit, labeler) = self.fit_labeled(data)?;
        let config = self.rock.config();
        let artifact = ModelArtifact::from_labeled(
            "rock",
            &fit,
            &labeler,
            config.labeling_fraction,
            config.hash_seed,
        )?;
        Ok((fit, artifact))
    }

    /// One Fig.-2 fit as a [`ModelFit`], with the [`Labeler`] that
    /// labeled it.
    fn fit_labeled<P>(&self, data: &[P]) -> Result<(ModelFit, Labeler<P>), RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        let (result, report, labeler) =
            self.rock.session().fit_with_labeler(data, &self.measure)?;
        let fit = ModelFit {
            clustering: result.full_clustering(),
            dendrogram: Dendrogram::from_run(&result.sample_run),
            report,
        };
        Ok((fit, labeler))
    }
}

impl<P, S> ClusterModel<[P]> for RockModel<S>
where
    P: Clone + Sync,
    S: Similarity<P> + Sync,
{
    fn name(&self) -> &'static str {
        "rock"
    }

    fn fit(&self, data: &[P]) -> Result<ModelFit, RockError> {
        Ok(self.fit_labeled(data)?.0)
    }
}
