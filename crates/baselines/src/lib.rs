//! # rock-baselines — the traditional comparators
//!
//! The clustering algorithms the ROCK paper compares against or discusses
//! in §1.1 and §5, implemented from scratch:
//!
//! * [`centroid`] — centroid-based agglomerative hierarchical clustering
//!   on boolean 0/1 encodings with the paper's n/3 singleton-weeding
//!   outlier rule ("the traditional algorithm" of §5);
//! * [`linkage`] — MST/single-link, complete-link and group-average
//!   hierarchical clustering over arbitrary similarities (§1.1);
//! * [`mod@kmeans`] — Lloyd's k-means minimising the criterion function `E`
//!   (the partitional family of §1.1);
//! * [`mod@kmodes`] — Huang's k-modes, a categorical partitional extra;
//! * [`mod@clarans`] — Ng & Han's randomized k-medoids search (§2);
//! * [`mod@dbscan`] — Ester et al.'s density-based clustering (§2), run over
//!   the same θ-neighbor graph as ROCK;
//! * [`vectorize`] — the §5 categorical → boolean 0/1 encoding;
//! * [`models`] — [`rock_core::ClusterModel`] adapters putting every
//!   baseline behind the same fit-and-report trait as ROCK.
//!
//! Every algorithm is one function taking a
//! [`rock_core::governor::RunGovernor`] for cancellation and budgets;
//! pass `RunGovernor::unlimited()` for an ungoverned run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centroid;
pub mod clarans;
pub mod dbscan;
pub mod kmeans;
pub mod kmodes;
pub mod linkage;
pub mod models;
pub mod vectorize;

pub use centroid::{centroid_hierarchical, centroid_hierarchical_with_centroids, CentroidConfig};
pub use clarans::{clarans, ClaransConfig, ClaransResult};
pub use dbscan::{dbscan, DbscanConfig};
pub use kmeans::{criterion_e, kmeans, KMeansConfig, KMeansResult};
pub use kmodes::{kmodes, KModesConfig, KModesResult};
pub use linkage::{similarity_linkage, Linkage, LinkageConfig};
pub use models::{
    CentroidModel, ClaransModel, DbscanModel, KMeansModel, KModesModel, LinkageModel,
};
pub use vectorize::{euclidean, records_to_vectors, sq_euclidean, transactions_to_vectors};

#[cfg(test)]
pub(crate) mod testdata {
    use rock_core::points::Transaction;

    /// Fig. 1 / Example 1.2 data: see `rock-core`'s test fixture.
    pub(crate) fn figure1_transactions() -> Vec<Transaction> {
        let mut ts = Vec::new();
        let a = [1u32, 2, 3, 4, 5];
        for x in 0..a.len() {
            for y in (x + 1)..a.len() {
                for z in (y + 1)..a.len() {
                    ts.push(Transaction::from([a[x], a[y], a[z]]));
                }
            }
        }
        let b = [1u32, 2, 6, 7];
        for x in 0..b.len() {
            for y in (x + 1)..b.len() {
                for z in (y + 1)..b.len() {
                    ts.push(Transaction::from([b[x], b[y], b[z]]));
                }
            }
        }
        ts
    }
}
