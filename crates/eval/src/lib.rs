//! # rock-eval — clustering quality metrics
//!
//! Everything needed to score a clustering against ground truth the way
//! the paper's evaluation does, plus the standard external indices:
//!
//! * [`contingency`] — predicted-cluster × true-class count tables
//!   (Tables 2–3), purity, pure-cluster counts;
//! * [`misclassification`] — misclassified-point counts under the optimal
//!   cluster correspondence (§5.4, Table 6);
//! * [`hungarian`] — the Kuhn–Munkres optimal-assignment solver backing
//!   it;
//! * [`agreement`] — Rand index, adjusted Rand index, NMI;
//! * [`profile`] — frequent-attribute-value cluster characterisation
//!   (Tables 7–9);
//! * [`scoring`] — one-call scoring of any
//!   [`rock_core::ClusterModel`] fit: misclassification + Rand/ARI/NMI
//!   from a [`rock_core::ModelFit`]'s assignments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod contingency;
pub mod hungarian;
pub mod misclassification;
pub mod profile;
pub mod scoring;

pub use agreement::{adjusted_rand_index, normalized_mutual_information, rand_index};
pub use contingency::ContingencyTable;
pub use hungarian::minimum_cost_assignment;
pub use misclassification::{count_misclassified, Misclassification};
pub use profile::{cluster_profiles, ClusterProfile, FrequentValue};
pub use scoring::{dense_labels, score_assignments, score_fit, ModelScore};
