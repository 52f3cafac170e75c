//! Lightweight process-global performance counters for the hot kernels.
//!
//! Every bench-snapshot delta should be explainable: when a number
//! moves, these counters say whether the kernel touched fewer bytes,
//! emitted fewer pairs, evaluated fewer similarities, or merely
//! allocated less. Kernels record *aggregate* contributions (one atomic
//! add per kernel invocation or per worker, never per element), so the
//! counters cost nothing measurable and — because every contribution is
//! a sum over the same work partition — their totals are identical for
//! every thread count, like the kernel outputs themselves.
//!
//! The counters are monotonically increasing and process-global.
//! Phase-scoped readings are taken by differencing two [`snapshot`]s,
//! which is how [`crate::engine::Pipeline`] attributes counts to the
//! sample/cluster/label phases in the [`crate::report::RunReport`].
//! Allocation counts are fed by the counting allocator installed in the
//! bench harness (`crates/bench`); library builds leave them at zero.
//!
//! This module never reads the wall clock ([`crate::report::PhaseTimer`]
//! owns timing) and never panics.

use std::sync::atomic::{AtomicU64, Ordering};

static PAIRS_EMITTED: AtomicU64 = AtomicU64::new(0);
static BYTES_TOUCHED: AtomicU64 = AtomicU64::new(0);
static SIM_EVALS: AtomicU64 = AtomicU64::new(0);
static SCRATCH_REUSED: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static RELABELS: AtomicU64 = AtomicU64::new(0);
static DIRTY_LINKS: AtomicU64 = AtomicU64::new(0);
static REMERGES: AtomicU64 = AtomicU64::new(0);

/// Records `n` link-pairs emitted by a link kernel: the neighbor pairs
/// the sparse kernel counts (Σᵢ mᵢ(mᵢ−1)/2), or the linked pairs the
/// dense kernel finds.
#[inline]
pub fn count_pairs_emitted(n: u64) {
    PAIRS_EMITTED.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` bytes of working-set traffic — an estimate of the bytes
/// a kernel writes: a link kernel's output runs plus its CSR, and for
/// the dense link kernel also its bit-row arena.
#[inline]
pub fn count_bytes_touched(n: u64) {
    BYTES_TOUCHED.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` pairwise similarity evaluations. The §4.6 batch pass
/// (`label_all`, the `rock-data` stream labeler and the online update
/// alike) counts the evaluations its scan made, once per worker chunk:
/// the touched representatives of an item-indexed point, `Σ|Lᵢ|` of a
/// brute-force one. An online update adds its re-merge's cross-link
/// count: the touched representatives on the indexed path, `Σ|Lᵢ|·|Lⱼ|`
/// over the pairs with a dirty cluster on the brute-force path. The
/// shard coarse merge counts only its coarse neighbor scan.
#[inline]
pub fn count_sim_evals(n: u64) {
    SIM_EVALS.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` scratch structures reused instead of
/// freshly allocated (e.g. the merge loop handing a retired link list
/// and candidate heap to the merged cluster).
#[inline]
pub fn count_scratch_reused(n: u64) {
    SCRATCH_REUSED.fetch_add(n, Ordering::Relaxed);
}

/// Records `count` heap allocations totalling `bytes` — called by the
/// counting allocator in the bench harness.
#[inline]
pub fn count_allocs(count: u64, bytes: u64) {
    ALLOCS.fetch_add(count, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Records `n` §4.6 labeling decisions taken by the online update path.
#[inline]
pub fn count_relabels(n: u64) {
    RELABELS.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` dirty links accumulated by the online update path.
#[inline]
pub fn count_dirty_links(n: u64) {
    DIRTY_LINKS.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` bounded re-merge passes triggered by staleness.
#[inline]
pub fn count_remerges(n: u64) {
    REMERGES.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of all counters; subtract two to scope a
/// phase. All fields are cumulative totals since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Link-pairs emitted by link kernels.
    pub pairs_emitted: u64,
    /// Estimated working-set bytes touched by kernels.
    pub bytes_touched: u64,
    /// Pairwise similarity evaluations.
    pub sim_evals: u64,
    /// Scratch structures recycled instead of reallocated.
    pub scratch_reused: u64,
    /// Heap allocations observed by the bench counting allocator.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// §4.6 labeling decisions taken by the online update path.
    pub relabels: u64,
    /// Dirty links accumulated by the online update path.
    pub dirty_links: u64,
    /// Bounded re-merge passes triggered by staleness.
    pub remerges: u64,
}

impl PerfCounters {
    /// The counters accumulated since `earlier` (saturating, so a stale
    /// baseline never underflows).
    pub fn since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            pairs_emitted: self.pairs_emitted.saturating_sub(earlier.pairs_emitted),
            bytes_touched: self.bytes_touched.saturating_sub(earlier.bytes_touched),
            sim_evals: self.sim_evals.saturating_sub(earlier.sim_evals),
            scratch_reused: self.scratch_reused.saturating_sub(earlier.scratch_reused),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            relabels: self.relabels.saturating_sub(earlier.relabels),
            dirty_links: self.dirty_links.saturating_sub(earlier.dirty_links),
            remerges: self.remerges.saturating_sub(earlier.remerges),
        }
    }

    /// True when every counter is zero (nothing to report).
    pub fn is_zero(&self) -> bool {
        *self == PerfCounters::default()
    }
}

impl std::fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pairs={} bytes={} sims={} reused={} allocs={}/{}B",
            self.pairs_emitted,
            self.bytes_touched,
            self.sim_evals,
            self.scratch_reused,
            self.allocs,
            self.alloc_bytes
        )?;
        // The update-path counters only appear once the update path has
        // run: batch-only readings keep the historical compact form.
        if self.relabels != 0 || self.dirty_links != 0 || self.remerges != 0 {
            write!(
                f,
                " relabels={} dirty={} remerges={}",
                self.relabels, self.dirty_links, self.remerges
            )?;
        }
        Ok(())
    }
}

/// Reads all counters at once.
pub fn snapshot() -> PerfCounters {
    PerfCounters {
        pairs_emitted: PAIRS_EMITTED.load(Ordering::Relaxed),
        bytes_touched: BYTES_TOUCHED.load(Ordering::Relaxed),
        sim_evals: SIM_EVALS.load(Ordering::Relaxed),
        scratch_reused: SCRATCH_REUSED.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        relabels: RELABELS.load(Ordering::Relaxed),
        dirty_links: DIRTY_LINKS.load(Ordering::Relaxed),
        remerges: REMERGES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_difference() {
        let before = snapshot();
        count_pairs_emitted(5);
        count_bytes_touched(100);
        count_sim_evals(7);
        count_scratch_reused(2);
        count_allocs(3, 48);
        let delta = snapshot().since(&before);
        // Other tests may run concurrently and bump the globals too, so
        // pin lower bounds, not exact values.
        assert!(delta.pairs_emitted >= 5);
        assert!(delta.bytes_touched >= 100);
        assert!(delta.sim_evals >= 7);
        assert!(delta.scratch_reused >= 2);
        assert!(delta.allocs >= 3);
        assert!(delta.alloc_bytes >= 48);
        assert!(!delta.is_zero());
    }

    #[test]
    fn stale_baseline_saturates() {
        let late = snapshot();
        let early = PerfCounters::default();
        // since() with swapped arguments must not underflow.
        assert_eq!(early.since(&late), PerfCounters::default());
    }

    #[test]
    fn display_is_compact() {
        let c = PerfCounters {
            pairs_emitted: 1,
            bytes_touched: 2,
            sim_evals: 3,
            scratch_reused: 4,
            allocs: 5,
            alloc_bytes: 6,
            ..PerfCounters::default()
        };
        assert_eq!(c.to_string(), "pairs=1 bytes=2 sims=3 reused=4 allocs=5/6B");
        assert!(PerfCounters::default().is_zero());
    }

    #[test]
    fn display_extends_only_when_update_counters_fire() {
        let c = PerfCounters {
            relabels: 7,
            dirty_links: 8,
            remerges: 9,
            ..PerfCounters::default()
        };
        assert_eq!(
            c.to_string(),
            "pairs=0 bytes=0 sims=0 reused=0 allocs=0/0B relabels=7 dirty=8 remerges=9"
        );
        let before = snapshot();
        count_relabels(2);
        count_dirty_links(3);
        count_remerges(1);
        let delta = snapshot().since(&before);
        assert!(delta.relabels >= 2);
        assert!(delta.dirty_links >= 3);
        assert!(delta.remerges >= 1);
    }
}
