//! The staged pipeline engine behind the [`crate::rock::Rock`] driver.
//!
//! The paper's Fig.-2 driver is an explicit staged pipeline — draw a
//! sample, build the θ-neighbor graph, compute links, merge, label the
//! disk-resident remainder (§4.3–§4.6). This module makes that structure
//! a first-class contract instead of a hand-threaded monolith:
//!
//! ```text
//!            ┌────────┐   ┌───────────┐   ┌───────┐   ┌───────┐   ┌───────┐
//!  Pipeline  │ Sample │ → │ Neighbors │ → │ Links │ → │ Merge │ → │ Label │
//!            └────────┘   └───────────┘   └───────┘   └───────┘   └───────┘
//!                 ╲             │              │           │           ╱
//!                  ╲────────────┴──────────────┴───────────┴──────────╱
//!                 &mut Pipeline: config · governor · WAL · RNG · report
//! ```
//!
//! * [`Stage`] — one pipeline step. A stage is a plain
//!   struct carrying its inputs and knobs; running it consumes it and
//!   returns its typed output.
//! * [`Pipeline`] — the one per-run object every stage receives by
//!   `&mut`: the [`crate::rock::RockConfig`], the
//!   [`crate::governor::RunGovernor`], the optional
//!   [`crate::wal::MergeWal`] handle, the seeded sampling/labeling RNG
//!   and the [`crate::report::RunReport`] sink. Its compositions own
//!   phase transitions (one governor checkpoint per stage entry), the
//!   memory-charge windows around the big structures, the degradation
//!   fallbacks and interruption/resume semantics.
//! * [`ClusterModel`] — the uniform fit → labels +
//!   report contract implemented by ROCK here and by every traditional
//!   algorithm in `rock-baselines`, so evaluation and benchmarking run
//!   generically over any model.
//!
//! The engine is deliberately behavior-preserving: every governor
//! checkpoint, memory charge/release window, RNG draw and WAL append
//! happens in exactly the order the pre-engine `rock.rs` monolith
//! performed them, so clustering output, WAL bytes and crash-resume
//! continuations are bit-for-bit identical (enforced by the
//! `pipeline_equivalence` proptests).
//!
//! Above the single-run pipeline sits the fault-isolated
//! shard-and-merge layer: [`shard`] partitions the input and defines the
//! fault seam, and [`supervisor`] runs each shard's pipeline under its
//! own child governor with retry, WAL resume and poisoned-shard
//! quarantine, then merges the survivors on representative link
//! densities.
//!
//! This module is panic-free by construction — no `unwrap`/`expect`/
//! `panic!`/`unreachable!` — and rock-tidy's `engine-contract` rule keeps
//! it that way.

/// The uniform [`ClusterModel`] fit contract and ROCK's implementation.
pub mod model;
/// The per-run [`Pipeline`]: run state, phase transitions, checkpoints,
/// resume.
pub mod pipeline;
/// Sharding primitives: partitioning, knobs, fault seam.
pub mod shard;
/// The [`Stage`] trait and the five Fig.-2 stages.
pub mod stage;
/// The shard supervisor: retry, resume, quarantine and merge.
pub mod supervisor;

pub use model::{ClusterModel, ModelFit};
pub use pipeline::Pipeline;
pub use shard::{shard_ranges, ShardConfig, ShardFaultPlan, ShardRun};
pub use stage::{LabelStage, LinksStage, MergeStage, NeighborsStage, SampleStage, Stage};
pub use supervisor::{ShardSupervisor, ShardedRun};
