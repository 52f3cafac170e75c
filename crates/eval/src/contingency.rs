//! Contingency tables between a predicted clustering and ground-truth
//! classes — the raw counts behind Tables 2 and 3 of the paper
//! ("No of Republicans / No of Democrats" per cluster, "No of Edible /
//! No of Poisonous" per cluster).

/// A predicted-cluster × true-class count matrix.
///
/// Rows are predicted clusters, columns true classes. Points without a
/// predicted cluster (outliers) are tallied separately per class, so
/// `total()` always equals the number of input points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContingencyTable {
    counts: Vec<Vec<usize>>,
    outlier_counts: Vec<usize>,
    num_classes: usize,
}

impl ContingencyTable {
    /// Builds the table from per-point predicted clusters and true
    /// classes.
    ///
    /// `pred[i]` is the predicted cluster of point `i` (`None` =
    /// outlier); `truth[i]` its true class.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn new(pred: &[Option<usize>], truth: &[usize]) -> Self {
        assert_eq!(pred.len(), truth.len(), "pred and truth must align");
        let num_clusters = pred.iter().flatten().copied().max().map_or(0, |m| m + 1);
        let num_classes = truth.iter().copied().max().map_or(0, |m| m + 1);
        let mut counts = vec![vec![0usize; num_classes]; num_clusters];
        let mut outlier_counts = vec![0usize; num_classes];
        for (p, &t) in pred.iter().zip(truth) {
            match p {
                Some(c) => counts[*c][t] += 1,
                None => outlier_counts[t] += 1,
            }
        }
        ContingencyTable {
            counts,
            outlier_counts,
            num_classes,
        }
    }

    /// Number of predicted clusters (excluding the outlier bucket).
    pub fn num_clusters(&self) -> usize {
        self.counts.len()
    }

    /// Number of true classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Count of points in predicted cluster `c` with true class `t`.
    pub fn count(&self, c: usize, t: usize) -> usize {
        self.counts[c][t]
    }

    /// The class counts of one predicted cluster.
    pub fn row(&self, c: usize) -> &[usize] {
        &self.counts[c]
    }

    /// Per-class counts of points predicted as outliers.
    pub fn outlier_row(&self) -> &[usize] {
        &self.outlier_counts
    }

    /// Size of predicted cluster `c`.
    pub fn cluster_size(&self, c: usize) -> usize {
        self.counts[c].iter().sum()
    }

    /// Total number of points (clustered + outliers).
    pub fn total(&self) -> usize {
        self.counts
            .iter()
            .map(|r| r.iter().sum::<usize>())
            .sum::<usize>()
            + self.outlier_counts.iter().sum::<usize>()
    }

    /// Number of clustered points (excluding outliers).
    pub fn total_clustered(&self) -> usize {
        self.total() - self.outlier_counts.iter().sum::<usize>()
    }

    /// Whether cluster `c` is *pure* (all points one class) — the paper's
    /// headline mushroom metric ("all except one of the clusters are pure
    /// clusters").
    fn is_pure(&self, c: usize) -> bool {
        self.counts[c].iter().filter(|&&n| n > 0).count() <= 1
    }

    /// Number of pure clusters.
    pub fn num_pure_clusters(&self) -> usize {
        (0..self.num_clusters()).filter(|&c| self.is_pure(c)).count()
    }

    /// Overall purity: the fraction of clustered points belonging to
    /// their cluster's majority class. 0 for an empty clustering.
    pub fn purity(&self) -> f64 {
        let clustered = self.total_clustered();
        if clustered == 0 {
            return 0.0;
        }
        let majority: usize = self
            .counts
            .iter()
            .map(|r| r.iter().copied().max().unwrap_or(0))
            .sum();
        majority as f64 / clustered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2_like() -> ContingencyTable {
        // A Table-2-shaped outcome: cluster 0 = 144 R + 22 D,
        // cluster 1 = 5 R + 201 D, 63 outliers (19 R + 44 D).
        let mut pred = Vec::new();
        let mut truth = Vec::new();
        let mut push = |p: Option<usize>, t: usize, n: usize| {
            for _ in 0..n {
                pred.push(p);
                truth.push(t);
            }
        };
        push(Some(0), 0, 144);
        push(Some(0), 1, 22);
        push(Some(1), 0, 5);
        push(Some(1), 1, 201);
        push(None, 0, 19);
        push(None, 1, 44);
        ContingencyTable::new(&pred, &truth)
    }

    #[test]
    fn counts_and_totals() {
        let t = table2_like();
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.num_classes(), 2);
        assert_eq!(t.count(0, 0), 144);
        assert_eq!(t.count(1, 1), 201);
        assert_eq!(t.outlier_row(), &[19, 44]);
        assert_eq!(t.total(), 435);
        assert_eq!(t.total_clustered(), 372);
        assert_eq!(t.cluster_size(0), 166);
    }

    #[test]
    fn purity_of_table2() {
        let t = table2_like();
        let expected = (144 + 201) as f64 / 372.0;
        assert!((t.purity() - expected).abs() < 1e-12);
        assert!(!t.is_pure(0));
        assert_eq!(t.num_pure_clusters(), 0);
    }

    #[test]
    fn pure_cluster_detection() {
        let pred = vec![Some(0), Some(0), Some(1), Some(1), Some(1)];
        let truth = vec![0, 0, 1, 1, 0];
        let t = ContingencyTable::new(&pred, &truth);
        assert!(t.is_pure(0));
        assert!(!t.is_pure(1));
        assert_eq!(t.num_pure_clusters(), 1);
    }

    #[test]
    fn empty_input() {
        let t = ContingencyTable::new(&[], &[]);
        assert_eq!(t.total(), 0);
        assert_eq!(t.purity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = ContingencyTable::new(&[None], &[]);
    }
}
