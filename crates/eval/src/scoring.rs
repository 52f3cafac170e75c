//! Scoring [`ClusterModel`](rock_core::engine::ClusterModel) fits against ground truth.
//!
//! The metric primitives in this crate all want flat label slices; a
//! model fit hands back a [`ModelFit`] whose clustering has per-point
//! `Option<cluster>` assignments (with `None` = outlier). This module is
//! the bridge: it densifies assignments under the crate's outliers-are-
//! one-extra-class convention and bundles every §5-style quality number
//! into one [`ModelScore`], so evaluation and bench drivers can run *any*
//! model — ROCK or baseline — through a single scoring call.

use crate::agreement::{adjusted_rand_index, normalized_mutual_information, rand_index};
use crate::misclassification::{count_misclassified, Misclassification};
use rock_core::engine::ModelFit;

/// Every external quality index of one model fit against ground truth.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelScore {
    /// Misclassified-point count under the optimal cluster matching
    /// (§5.4, Table 6), outliers their own class.
    pub misclassification: Misclassification,
    /// Rand index over densified labels.
    pub rand: f64,
    /// Adjusted Rand index over densified labels.
    pub ari: f64,
    /// Normalized mutual information over densified labels.
    pub nmi: f64,
    /// Predicted cluster count.
    pub num_clusters: usize,
    /// Predicted outlier count.
    pub outliers: usize,
}

/// Flattens `Option<cluster>` assignments to dense labels: outliers
/// (`None`) become the single extra label `outlier_label`. The agreement
/// indices build dense count matrices, so `outlier_label` should be the
/// side's cluster count — every id in `0..=outlier_label` then stays
/// compact.
pub fn dense_labels(assignments: &[Option<usize>], outlier_label: usize) -> Vec<usize> {
    assignments
        .iter()
        .map(|a| a.map_or(outlier_label, |c| c))
        .collect()
}

/// Scores predicted per-point assignments against true ones (both with
/// `None` = outlier).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn score_assignments(pred: &[Option<usize>], truth: &[Option<usize>]) -> ModelScore {
    assert_eq!(pred.len(), truth.len(), "pred and truth must align");
    let kp = pred.iter().flatten().copied().max().map_or(0, |m| m + 1);
    let kt = truth.iter().flatten().copied().max().map_or(0, |m| m + 1);
    let p = dense_labels(pred, kp);
    let t = dense_labels(truth, kt);
    ModelScore {
        misclassification: count_misclassified(pred, truth),
        rand: rand_index(&p, &t),
        ari: adjusted_rand_index(&p, &t),
        nmi: normalized_mutual_information(&p, &t),
        num_clusters: kp,
        outliers: pred.iter().filter(|a| a.is_none()).count(),
    }
}

/// Scores a finished [`ModelFit`] against ground truth. The fit's
/// clustering is expanded to `truth.len()` per-point assignments.
pub fn score_fit(fit: &ModelFit, truth: &[Option<usize>]) -> ModelScore {
    score_assignments(&fit.assignments(truth.len()), truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::cluster::Clustering;
    use rock_core::report::RunReport;

    fn fit_of(clusters: Vec<Vec<u32>>, outliers: Vec<u32>) -> ModelFit {
        ModelFit {
            clustering: Clustering::new(clusters, outliers),
            dendrogram: None,
            report: RunReport::new(),
        }
    }

    #[test]
    fn perfect_fit_scores_one_everywhere() {
        let truth = vec![Some(0), Some(0), Some(1), Some(1), None];
        let fit = fit_of(vec![vec![0, 1], vec![2, 3]], vec![4]);
        let s = score_fit(&fit, &truth);
        assert_eq!(s.misclassification.misclassified, 0);
        assert_eq!(s.rand, 1.0);
        assert_eq!(s.ari, 1.0);
        assert!((s.nmi - 1.0).abs() < 1e-12);
        assert_eq!(s.num_clusters, 2);
        assert_eq!(s.outliers, 1);
    }

    #[test]
    fn label_permutation_does_not_matter() {
        let truth = vec![Some(1), Some(1), Some(0), Some(0)];
        let fit = fit_of(vec![vec![0, 1], vec![2, 3]], vec![]);
        let s = score_fit(&fit, &truth);
        assert_eq!(s.misclassification.misclassified, 0);
        assert_eq!(s.ari, 1.0);
    }

    #[test]
    fn merged_clusters_lose_score() {
        let truth: Vec<Option<usize>> =
            (0..8).map(|i| Some(usize::from(i >= 4))).collect();
        let fit = fit_of(vec![(0..8).collect()], vec![]);
        let s = score_fit(&fit, &truth);
        assert_eq!(s.misclassification.misclassified, 4);
        assert!(s.ari < 0.5);
        assert_eq!(s.num_clusters, 1);
    }

    #[test]
    fn outlier_confusion_is_visible_in_every_index() {
        let truth = vec![Some(0), Some(0), None, None];
        let good = score_assignments(&[Some(0), Some(0), None, None], &truth);
        let bad = score_assignments(&[Some(0), Some(0), Some(0), Some(0)], &truth);
        assert!(good.misclassification.misclassified < bad.misclassification.misclassified);
        assert!(good.ari > bad.ari);
        assert_eq!(bad.outliers, 0);
    }

    #[test]
    fn dense_labels_compact() {
        assert_eq!(
            dense_labels(&[Some(1), None, Some(0)], 2),
            vec![1, 2, 0]
        );
    }
}
