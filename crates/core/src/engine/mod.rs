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
//!                  ╲────────────┴──── RunCtx ──┴───────────┴──────────╱
//!                       governor · WAL · RNG · hash seed · policy · report
//! ```
//!
//! * [`Stage`] — one pipeline step. A stage is a plain
//!   struct carrying its inputs and knobs; running it consumes it and
//!   returns its typed output.
//! * [`RunCtx`] — the shared run state every stage receives:
//!   the [`crate::governor::RunGovernor`], the optional
//!   [`crate::wal::MergeWal`] handle, the seeded sampling/labeling RNG,
//!   the seeded-hasher override, the
//!   [`crate::governor::DegradationPolicy`], and the
//!   [`crate::report::RunReport`] sink.
//! * [`Pipeline`] — the thin runner that owns phase
//!   transitions (one governor checkpoint per stage entry), the
//!   memory-charge windows around the big structures, checkpoint
//!   boundaries and interruption/resume semantics.
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
//! coarse representative-level similarity, and [`supervisor`] runs each
//! shard's pipeline under its own child governor with retry, WAL resume
//! and poisoned-shard quarantine, then merges the survivors.
//!
//! This module is panic-free by construction — no `unwrap`/`expect`/
//! `panic!`/`unreachable!` — and rock-tidy's `engine-contract` rule keeps
//! it that way.

/// Shared per-run state ([`RunCtx`]) threaded through every stage.
pub mod ctx;
/// The uniform [`ClusterModel`] fit contract and ROCK's implementation.
pub mod model;
/// The [`Pipeline`] runner: phase transitions, checkpoints, resume.
pub mod pipeline;
/// Sharding primitives: partitioning, knobs, fault seam, coarse similarity.
pub mod shard;
/// The [`Stage`] trait and the five Fig.-2 stages.
pub mod stage;
/// The shard supervisor: retry, resume, quarantine and merge.
pub mod supervisor;

pub use ctx::RunCtx;
pub use model::{ClusterModel, ModelFit};
pub use pipeline::Pipeline;
pub use shard::{shard_ranges, NoFaults, RepSetSimilarity, ShardConfig, ShardFaultPlan, ShardRun};
pub use stage::{LabelStage, LinksStage, MergeStage, NeighborsStage, ResumeStage, SampleStage, Stage};
pub use supervisor::{ShardSupervisor, ShardedRun};
