//! [`ClusterModel`] adapters: every baseline behind the same trait as
//! ROCK itself.
//!
//! `rock-eval` and `rock-bench` drive clustering algorithms generically —
//! fit a model, score/tabulate its [`ModelFit`] — so each baseline gets a
//! thin adapter that owns its configuration, seeds its own RNG stream
//! (for the randomized searches), runs the core to completion, and
//! accounts for wall-clock time and outliers in the returned
//! [`rock_core::report::RunReport`]. The baselines are ungoverned, so
//! `fit` never fails; only `rock_core::RockModel` runs under a
//! governor.
//!
//! | Model | Data type `D` | Core driver |
//! |---|---|---|
//! | [`CentroidModel`] | `[Vec<f64>]` | [`centroid_hierarchical`] |
//! | [`KMeansModel`] | `[Vec<f64>]` | [`kmeans`](mod@crate::kmeans) |
//! | [`KModesModel`] | `[CategoricalRecord]` | [`kmodes`] |
//! | [`LinkageModel`] | any [`PairwiseSimilarity`] | [`similarity_linkage`] |
//! | [`ClaransModel`] | any [`PairwiseSimilarity`] | [`clarans`] |
//! | [`DbscanModel`] | any [`PairwiseSimilarity`] `+ Sync` | [`dbscan`] |
//!
//! (`rock_core::RockModel` completes the set — ROCK over point slices.)
//!
//! The adapters return `dendrogram: None` — merge histories are not
//! tracked for the baselines; only ROCK's own engine produces a
//! replayable [`rock_core::Dendrogram`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use rock_core::cluster::Clustering;
use rock_core::engine::{ClusterModel, ModelFit};
use rock_core::error::RockError;
use rock_core::neighbors::NeighborGraph;
use rock_core::points::CategoricalRecord;
use rock_core::report::{PhaseTimer, RunReport};
use rock_core::similarity::PairwiseSimilarity;

use crate::centroid::{centroid_hierarchical, CentroidConfig};
use crate::clarans::{clarans, ClaransConfig};
use crate::dbscan::{dbscan, DbscanConfig};
use crate::kmeans::{kmeans, KMeansConfig};
use crate::kmodes::{kmodes, KModesConfig};
use crate::linkage::{similarity_linkage, Linkage, LinkageConfig};

/// Wraps a finished clustering into a [`ModelFit`], accounting for the
/// timed "cluster" phase and the outlier count.
fn finish(clustering: Clustering, timer: PhaseTimer, mut report: RunReport) -> ModelFit {
    timer.record(&mut report, "cluster");
    report.outliers = clustering.outliers.len() as u64;
    ModelFit {
        clustering,
        dendrogram: None,
        report,
    }
}

/// The §5 traditional comparator as a [`ClusterModel`] over dense 0/1
/// vectors (see [`crate::vectorize`]).
#[derive(Clone, Debug)]
pub struct CentroidModel {
    config: CentroidConfig,
}

impl CentroidModel {
    /// A model with the given configuration.
    pub fn new(config: CentroidConfig) -> Self {
        CentroidModel { config }
    }
}

impl ClusterModel<[Vec<f64>]> for CentroidModel {
    fn name(&self) -> &'static str {
        "centroid"
    }

    fn fit(&self, data: &[Vec<f64>]) -> Result<ModelFit, RockError> {
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        let timer = PhaseTimer::start();
        let clustering = centroid_hierarchical(data, self.config);
        Ok(finish(clustering, timer, report))
    }
}

/// Lloyd's k-means as a [`ClusterModel`] over dense vectors.
#[derive(Clone, Debug)]
pub struct KMeansModel {
    config: KMeansConfig,
    seed: u64,
}

impl KMeansModel {
    /// A model seeding its k-means++ stream from `seed`.
    pub fn new(config: KMeansConfig, seed: u64) -> Self {
        KMeansModel { config, seed }
    }
}

impl ClusterModel<[Vec<f64>]> for KMeansModel {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn fit(&self, data: &[Vec<f64>]) -> Result<ModelFit, RockError> {
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let timer = PhaseTimer::start();
        let result = kmeans(data, self.config, &mut rng);
        Ok(finish(result.clustering, timer, report))
    }
}

/// Huang's k-modes as a [`ClusterModel`] over categorical records.
#[derive(Clone, Debug)]
pub struct KModesModel {
    config: KModesConfig,
    seed: u64,
}

impl KModesModel {
    /// A model seeding its mode-selection stream from `seed`.
    pub fn new(config: KModesConfig, seed: u64) -> Self {
        KModesModel { config, seed }
    }
}

impl ClusterModel<[CategoricalRecord]> for KModesModel {
    fn name(&self) -> &'static str {
        "kmodes"
    }

    fn fit(&self, data: &[CategoricalRecord]) -> Result<ModelFit, RockError> {
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let timer = PhaseTimer::start();
        let result = kmodes(data, self.config, &mut rng);
        Ok(finish(result.clustering, timer, report))
    }
}

/// MST/single-link, complete-link or group-average clustering as a
/// [`ClusterModel`] over any pairwise similarity.
#[derive(Clone, Debug)]
pub struct LinkageModel {
    config: LinkageConfig,
}

impl LinkageModel {
    /// A model with the given linkage configuration.
    pub fn new(config: LinkageConfig) -> Self {
        LinkageModel { config }
    }
}

impl<PS: PairwiseSimilarity> ClusterModel<PS> for LinkageModel {
    fn name(&self) -> &'static str {
        match self.config.linkage {
            Linkage::Single => "single-link",
            Linkage::Complete => "complete-link",
            Linkage::Average => "group-average",
        }
    }

    fn fit(&self, data: &PS) -> Result<ModelFit, RockError> {
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        let timer = PhaseTimer::start();
        let clustering = similarity_linkage(data, self.config);
        Ok(finish(clustering, timer, report))
    }
}

/// CLARANS randomized k-medoids as a [`ClusterModel`] over any pairwise
/// similarity.
#[derive(Clone, Debug)]
pub struct ClaransModel {
    config: ClaransConfig,
    seed: u64,
}

impl ClaransModel {
    /// A model seeding its randomized search from `seed`.
    pub fn new(config: ClaransConfig, seed: u64) -> Self {
        ClaransModel { config, seed }
    }
}

impl<PS: PairwiseSimilarity> ClusterModel<PS> for ClaransModel {
    fn name(&self) -> &'static str {
        "clarans"
    }

    fn fit(&self, data: &PS) -> Result<ModelFit, RockError> {
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let timer = PhaseTimer::start();
        let result = clarans(data, self.config, &mut rng);
        Ok(finish(result.clustering, timer, report))
    }
}

/// DBSCAN as a [`ClusterModel`]: builds the θ-neighbor graph ROCK uses
/// (a similarity threshold is an ε-radius in similarity space), then
/// grows density-connected clusters over it on one thread. Reports the
/// graph build as its own "neighbors" phase.
#[derive(Clone, Debug)]
pub struct DbscanModel {
    config: DbscanConfig,
    theta: f64,
}

impl DbscanModel {
    /// A model thresholding neighborhoods at `theta`.
    pub fn new(config: DbscanConfig, theta: f64) -> Self {
        DbscanModel { config, theta }
    }
}

impl<PS: PairwiseSimilarity + Sync> ClusterModel<PS> for DbscanModel {
    fn name(&self) -> &'static str {
        "dbscan"
    }

    fn fit(&self, data: &PS) -> Result<ModelFit, RockError> {
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        let timer = PhaseTimer::start();
        let graph = NeighborGraph::build(data, self.theta, 1);
        timer.record(&mut report, "neighbors");
        let timer = PhaseTimer::start();
        let clustering = dbscan(&graph, self.config);
        Ok(finish(clustering, timer, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectorize::transactions_to_vectors;
    use rock_core::points::Transaction;
    use rock_core::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    fn block_matrix(n: usize) -> SimilarityMatrix {
        SimilarityMatrix::from_fn(n, |i, j| {
            if (i < n / 2) == (j < n / 2) {
                0.9
            } else {
                0.1
            }
        })
    }

    /// One adapter-table row: the model's name, its fit, the direct
    /// core call's clustering and the input length.
    fn row<D: ?Sized, M: ClusterModel<D>>(
        model: &M,
        data: &D,
        direct: Clustering,
        len: usize,
    ) -> (&'static str, ModelFit, Clustering, usize) {
        (model.name(), model.fit(data).unwrap(), direct, len)
    }

    #[test]
    fn every_model_matches_its_core() {
        // Two groups of six baskets plus one basket sharing no item, so
        // the outlier-weeding centroid run and DBSCAN both report noise.
        let mut ts: Vec<Transaction> = (0..12)
            .map(|i| {
                if i < 6 {
                    Transaction::from([1, 2, 3 + (i % 2) as u32])
                } else {
                    Transaction::from([10, 11, 12 + (i % 2) as u32])
                }
            })
            .collect();
        ts.push(Transaction::from([20]));
        let n = ts.len();
        let vs = transactions_to_vectors(&ts, 21);
        let pw = PointsWith::new(&ts, Jaccard);
        let rs: Vec<CategoricalRecord> = (0..10)
            .map(|i| CategoricalRecord::complete(vec![(i / 5) * 5, (i / 5) * 5, i % 2]))
            .collect();
        let rng = StdRng::seed_from_u64;

        let centroid = CentroidConfig::paper(2);
        let kmeans_cfg = KMeansConfig::new(2);
        let kmodes_cfg = KModesConfig::new(2);
        let linkage = LinkageConfig::new(2, Linkage::Average);
        let clarans_cfg = ClaransConfig::new(2);
        let dbscan_cfg = DbscanConfig::new(3);
        let rows = [
            row(
                &CentroidModel::new(centroid),
                &vs[..],
                centroid_hierarchical(&vs, centroid),
                n,
            ),
            row(
                &KMeansModel::new(kmeans_cfg, 7),
                &vs[..],
                kmeans(&vs, kmeans_cfg, &mut rng(7)).clustering,
                n,
            ),
            row(
                &KModesModel::new(kmodes_cfg, 11),
                &rs[..],
                kmodes(&rs, kmodes_cfg, &mut rng(11)).clustering,
                rs.len(),
            ),
            row(
                &LinkageModel::new(linkage),
                &pw,
                similarity_linkage(&pw, linkage),
                n,
            ),
            row(
                &ClaransModel::new(clarans_cfg, 94),
                &pw,
                clarans(&pw, clarans_cfg, &mut rng(94)).clustering,
                n,
            ),
            row(
                &DbscanModel::new(dbscan_cfg, 0.5),
                &pw,
                dbscan(&NeighborGraph::build(&pw, 0.5, 1), dbscan_cfg),
                n,
            ),
        ];

        let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
        let expected = ["centroid", "kmeans", "kmodes", "group-average", "clarans", "dbscan"];
        assert_eq!(names, expected);
        for (name, fit, direct, len) in &rows {
            assert_eq!(fit.clustering, *direct, "{name}: fit differs from its core");
            assert_eq!(fit.report.records_read, *len as u64, "{name}");
            assert_eq!(
                fit.report.outliers,
                fit.clustering.outliers.len() as u64,
                "{name}"
            );
            assert!(fit.report.phase_duration("cluster").is_some(), "{name}");
            assert!(fit.dendrogram.is_none(), "{name}");
        }
        for (name, fit, ..) in [&rows[0], &rows[5]] {
            assert_eq!(fit.clustering.outliers, vec![12], "{name}: the lone basket is noise");
        }
    }

    #[test]
    fn randomized_models_are_reproducible() {
        let vs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i < 10 { 0.0 } else { 9.0 }, (i % 3) as f64 * 0.1])
            .collect();
        let model = KMeansModel::new(KMeansConfig::new(2), 7);
        let a = model.fit(&vs).unwrap();
        let b = model.fit(&vs).unwrap();
        assert_eq!(a.clustering, b.clustering);

        let m = block_matrix(12);
        let cl = ClaransModel::new(ClaransConfig::new(2), 94);
        assert_eq!(cl.fit(&m).unwrap().clustering, cl.fit(&m).unwrap().clustering);
    }

    #[test]
    fn linkage_model_names_follow_the_criterion() {
        for (linkage, name) in [
            (Linkage::Single, "single-link"),
            (Linkage::Complete, "complete-link"),
            (Linkage::Average, "group-average"),
        ] {
            let model = LinkageModel::new(LinkageConfig::new(2, linkage));
            assert_eq!(ClusterModel::<SimilarityMatrix>::name(&model), name);
        }
        let m = block_matrix(8);
        let fit = LinkageModel::new(LinkageConfig::new(2, Linkage::Average))
            .fit(&m)
            .unwrap();
        assert_eq!(fit.clustering.sizes(), vec![4, 4]);
    }

    #[test]
    fn dbscan_model_reports_both_phases_and_outliers() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([10, 12, 13]),
            Transaction::from([11, 12, 13]),
            Transaction::from([99]),
        ];
        let pw = PointsWith::new(&ts, Jaccard);
        let model = DbscanModel::new(DbscanConfig::new(3), 0.5);
        let fit = model.fit(&pw).unwrap();
        assert_eq!(fit.clustering.sizes(), vec![4, 4]);
        assert_eq!(fit.report.outliers, 1);
        assert!(fit.report.phase_duration("neighbors").is_some());
        assert!(fit.report.phase_duration("cluster").is_some());
        assert_eq!(fit.assignments(9)[8], None, "noise point is unassigned");
    }
}
