//! # rock — facade crate for the ROCK clustering workspace
//!
//! Re-exports the full public API of [`rock_core`] (the algorithm) and
//! exposes the companion crates under their own names:
//!
//! * [`rock_baselines`] — traditional comparators (centroid hierarchical,
//!   MST/single-link, group average, k-means, k-modes, CLARANS, DBSCAN);
//! * [`rock_data`] — data generators calibrated to the paper's evaluation
//!   plus UCI parsers and basket-file IO;
//! * [`rock_eval`] — clustering quality metrics (contingency tables,
//!   (adjusted) Rand index, NMI, Hungarian-matched misclassification,
//!   cluster profiles).
//!
//! See the repository `README.md` for a tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology and results.
//!
//! ```
//! use rock::points::Transaction;
//! use rock::similarity::Jaccard;
//! use rock::rock::Rock;
//!
//! let baskets = vec![
//!     Transaction::from([0, 1, 2]),
//!     Transaction::from([0, 1, 3]),
//!     Transaction::from([0, 2, 3]),
//!     Transaction::from([7, 8, 9]),
//!     Transaction::from([7, 8, 10]),
//!     Transaction::from([7, 9, 10]),
//! ];
//! let rock = Rock::builder().theta(0.5).clusters(2).build()?;
//! let run = rock.cluster(&baskets, &Jaccard)?;
//! assert_eq!(run.clustering.num_clusters(), 2);
//! # Ok::<(), rock::RockError>(())
//! ```

#![forbid(unsafe_code)]

pub use rock_core::*;

pub use rock_baselines;
pub use rock_data;
pub use rock_eval;
