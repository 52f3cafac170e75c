//! Sharding primitives for the fault-isolated shard-and-merge engine.
//!
//! The paper sidesteps scale by sampling once (Fig. 2); shard-and-merge
//! goes past it: the input is partitioned into deterministic contiguous
//! shards ([`shard_ranges`]), each shard is clustered by the staged
//! [`crate::engine::Pipeline`] under its own child governor, and the
//! shard-level clusters are merged by a second, coarse ROCK pass over
//! the link densities of their representative sets — He et al.'s
//! link-clustering view (PAPERS.md) justifies treating
//! representative-level links as a faithful clustering substrate, and
//! Genie motivates an outlier-resistant agglomerative merge.
//!
//! This module holds the *mechanism*: partitioning, the per-run knobs
//! ([`ShardConfig`]) and the deterministic fault-injection seam
//! ([`ShardFaultPlan`]). The *policy* — retry, resume-from-WAL,
//! quarantine, merge (its densities counted once per pass by the shared
//! representative cross-link count, `util::postings`) — lives in
//! [`crate::engine::supervisor`].

use crate::governor::RunGovernor;
use std::ops::Range;

/// Deterministically partitions `0..n` into at most `shards` contiguous,
/// non-empty, size-balanced ranges (fewer when `n < shards`; none when
/// `n == 0`). A pure function of `(n, shards)`, so every retry, resume
/// and exclusion oracle sees the same partition.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    crate::util::balanced_ranges(n, shards.max(1), |_| 1)
}

/// Knobs of a supervised shard-and-merge run (see
/// [`crate::engine::supervisor::ShardSupervisor`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardConfig {
    /// How many shards to partition the input into (≥ 1; the effective
    /// count is lower for inputs smaller than this).
    pub shards: usize,
    /// θ for the coarse merge pass over representative-set link
    /// densities (`None` = reuse the run's θ). Representative-level
    /// similarities concentrate below raw point similarities, so a
    /// looser threshold is often appropriate here.
    pub merge_theta: Option<f64>,
    /// Fraction of each shard cluster kept as its representative set
    /// `Lᵢ` for the coarse pass, in `(0, 1]`; `1.0` keeps every member.
    /// Sub-unit fractions draw a deterministic seeded sample per
    /// `(shard, cluster)`, independent of retry history.
    pub representative_fraction: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            merge_theta: None,
            representative_fraction: 1.0,
        }
    }
}

impl ShardConfig {
    /// A default config over `shards` shards.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// Per-(shard, attempt) fault hooks the supervisor applies before each
/// attempt — the seam deterministic chaos schedules plug into (see
/// `rock_data::faults::ShardFaultSchedule`). Both hooks default to
/// transparent pass-through; the supervisor itself always runs through
/// them, so a schedule can hit any shard at any retry round, and the
/// coarse merge pass under the sentinel shard index `shard count`.
pub trait ShardFaultPlan {
    /// The governor attempt `attempt` (0-based) of shard `shard` runs
    /// under. `base` is the supervisor-built child governor (the
    /// parent's cancellation token, clock and time budget, and a memory
    /// meter with no budget); a schedule injects a crash, hang or memory
    /// trip by rebuilding it.
    fn governor(&self, shard: usize, attempt: u32, base: RunGovernor) -> RunGovernor {
        let _ = (shard, attempt);
        base
    }

    /// Transforms the WAL bytes carried out of failed attempt `attempt`
    /// of shard `shard` into the next attempt's resume input — the
    /// torn-shard-WAL injection point.
    fn wal_bytes(&self, shard: usize, attempt: u32, bytes: Vec<u8>) -> Vec<u8> {
        let _ = (shard, attempt);
        bytes
    }
}

/// The transparent plan: no injected faults.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NoFaults;

impl ShardFaultPlan for NoFaults {}

/// One surviving shard's result within a
/// [`crate::engine::supervisor::ShardedRun`].
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Shard index (its position in [`shard_ranges`]).
    pub shard: usize,
    /// The global input range this shard covered.
    pub range: Range<usize>,
    /// Attempts it took to complete (1 = succeeded first try).
    pub attempts: u32,
    /// The shard-local clustering; point ids are relative to
    /// `range.start`.
    pub run: crate::algorithm::RockRun,
}
