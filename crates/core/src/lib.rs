//! # rock-core — the ROCK clustering algorithm
//!
//! A from-scratch implementation of **ROCK (RObust Clustering using
//! linKs)** from Guha, Rastogi & Shim, *"ROCK: A Robust Clustering
//! Algorithm for Categorical Attributes"*, ICDE 1999.
//!
//! ROCK clusters data with boolean/categorical attributes — market-basket
//! transactions, survey records, discretised time series — where distance
//! metrics and per-pair similarity coefficients mislead traditional
//! algorithms. Its key idea: call two points *neighbors* when their
//! similarity exceeds a threshold θ, define `link(p, q)` as the number of
//! **common neighbors** of `p` and `q`, and agglomeratively merge the pair
//! of clusters maximising a link-count goodness measure normalised by the
//! expected number of cross links. Links inject *global* neighborhood
//! information into every pairwise decision, which is what makes the
//! algorithm robust to outliers and overlapping clusters.
//!
//! ## Pipeline (paper Fig. 2)
//!
//! ```text
//! data  ──►  random sample  ──►  link-based agglomeration  ──►  label data on disk
//!            (sampling)          (neighbors → links → merges)   (labeling)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use rock_core::points::Transaction;
//! use rock_core::similarity::Jaccard;
//! use rock_core::rock::Rock;
//!
//! // Two buying patterns: "baby products" and "imported foods".
//! let baskets = vec![
//!     Transaction::from([0, 1, 2]), // diapers, baby food, toys
//!     Transaction::from([0, 1, 3]),
//!     Transaction::from([0, 2, 3]),
//!     Transaction::from([10, 11, 12]), // wine, cheese, chocolate
//!     Transaction::from([10, 11, 13]),
//!     Transaction::from([10, 12, 13]),
//! ];
//!
//! let rock = Rock::builder().theta(0.5).clusters(2).build()?;
//! let run = rock.cluster(&baskets, &Jaccard)?;
//! assert_eq!(run.clustering.num_clusters(), 2);
//! # Ok::<(), rock_core::RockError>(())
//! ```
//!
//! ## Module map
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`points`] | §3.1 | transactions, categorical records, schemas |
//! | [`similarity`] | §3.1 | Jaccard, categorical w/ missing values, expert tables |
//! | [`neighbors`] | §3.1 | θ-neighbor graph construction (serial & parallel) |
//! | [`links_matrix`] | §3.2, §4.4 | link counts as a CSR matrix: row-wise sparse (Fig. 4) and dense (A²) kernels |
//! | [`goodness`] | §3.3, §4.2 | f(θ) estimates and the merge goodness measure |
//! | [`criterion_fn`] | §3.3 | the criterion function E_l |
//! | [`heap`] | §4.3 | addressable max-heaps for the merge loop |
//! | [`algorithm`] | §4.3, §4.6 | the Fig.-3 agglomeration with outlier handling |
//! | [`incremental`] | §4.3, §4.6 | reusable merge-loop state + online update path (bounded re-merge) |
//! | [`sampling`] | §4.6 | Vitter reservoir sampling (Algorithms R and X), Chernoff sample size |
//! | [`labeling`] | §4.6 | assigning disk-resident points to sample clusters |
//! | [`rock`] | Fig. 2 | builder-configured end-to-end driver |
//! | [`perf`] | — | phase-scoped kernel counters (pairs, bytes, sims, scratch reuse) |
//! | [`report`] | — | structured [`RunReport`] for graceful-degradation visibility |
//! | [`governor`] | — | cancellation tokens, deadlines, memory budgets, degradation policies |
//! | [`wal`] | — | crash-safe merge write-ahead log with bit-identical resume |
//! | [`artifact`] | Fig. 2 | durable fitted-model artifact: versioned, CRC-framed, atomic save/load |
//! | [`serve`] | §4.6 | corruption-tolerant assign service over a loaded artifact |
//!
//! ## Robustness
//!
//! User-supplied inputs are guarded at the API boundary: configuration
//! errors are typed [`RockError`]s, and the entry points
//! ([`rock::Rock::cluster`], [`rock::Rock::run`],
//! [`labeling::Labeler::label_point_checked`],
//! [`labeling::LabelPass::label_checked`] and
//! [`incremental::IncrementalRockState::update`], which share one
//! checked §4.6 scan) surface non-finite similarities instead of
//! mis-clustering or panicking. The companion
//! `rock-data` crate adds a resilient streaming ingest/labeling driver
//! (retries, quarantine, checkpoints) over the same primitives, and its
//! `faults` module the deterministic fault injection used to test all
//! of it.
//!
//! Long runs are *governable* and *crash-safe*: a
//! [`governor::RunGovernor`] threads cooperative cancellation, a
//! wall-clock deadline and a charged-memory budget through every phase
//! (trips surface as [`RockError::Interrupted`]), a
//! [`wal::MergeWal`] persists each §4.3 merge decision with CRC framing
//! and periodic state snapshots, and
//! [`algorithm::RockAlgorithm::resume`] replays an interrupted log to a
//! **bit-identical** final clustering and dendrogram. When a budget
//! trips, a configured [`governor::DegradationPolicy`] can instead
//! downshift the link kernel, subsample and restart, or finish via
//! connected components — recorded in the [`RunReport`]. The failure
//! model, WAL format and degradation decision table are documented in
//! `DESIGN.md` §"Failure model".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod artifact;
pub mod cluster;
pub mod components;
pub mod criterion_fn;
pub mod dendrogram;
pub mod engine;
pub mod error;
pub mod goodness;
pub mod governor;
pub mod heap;
pub mod incremental;
pub mod labeling;
pub mod links_matrix;
pub mod neighbors;
pub mod perf;
pub mod points;
pub mod report;
pub mod rock;
pub mod sampling;
pub mod serve;
pub mod similarity;
pub mod util;
pub mod wal;

#[cfg(test)]
pub(crate) mod testdata;

pub use algorithm::{OutlierPolicy, RockAlgorithm, RockRun, WeedPolicy};
pub use artifact::{ArtifactPoint, ArtifactSource, ModelArtifact, UpdateExtension};
pub use cluster::{Clustering, MergeRecord};
pub use components::neighbor_components;
pub use dendrogram::Dendrogram;
pub use engine::model::RockModel;
pub use engine::{
    shard_ranges, ClusterModel, ModelFit, Pipeline, ShardConfig, ShardFaultPlan,
    ShardRun, ShardSupervisor, ShardedRun,
};
pub use error::RockError;
pub use goodness::{BasketF, ConstantF, FTheta, Goodness, GoodnessKind};
pub use incremental::{
    IncrementalRockState, IncrementalState, MergeBound, StalenessPolicy, UpdateOutcome,
    UpdateProvenance,
};
pub use governor::{
    CancellationToken, DegradationNote, DegradationPolicy, Phase, RunGovernor, TripReason,
};
pub use labeling::{Labeler, Labeling};
pub use links_matrix::{LinkKernel, LinkMatrix};
pub use neighbors::NeighborGraph;
pub use perf::PerfCounters;
pub use points::{CategoricalRecord, CategoricalSchema, ItemCatalog, Transaction};
pub use report::{PhasePerf, PhaseTiming, QuarantinedRecord, RunReport, ShardDegradationNote};
pub use rock::{Rock, RockBuilder, RockConfig, RockResult};
pub use serve::{
    AssignService, Centroid, OnlineAssignService, RetryPolicy, ServeBatch, ServeConfig,
    ServeDegradationNote, ServeReport,
};
pub use wal::{parse_update_wal, parse_wal, MergeWal, UpdateReplay, UpdateWal, WalReplay};
pub use similarity::{
    CategoricalJaccard, CheckedSimilarity, Jaccard, MissingPolicy, PairwiseSimilarity,
    PointsWith, Similarity, SimilarityMatrix,
};
