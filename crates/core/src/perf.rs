//! Per-thread work counters for the hot kernels.
//!
//! Every bench-snapshot delta should be explainable: when a number
//! moves, these counters say whether the kernel touched fewer bytes,
//! emitted fewer pairs, evaluated fewer similarities, or merely
//! allocated less. Kernels add *aggregate* contributions (once per
//! invocation or per worker, never per element), so counting costs
//! nothing measurable and the totals, sums over the same work partition,
//! are identical at every thread count, like the kernel outputs.
//!
//! Each thread owns its counters: a kernel counts on the thread that runs
//! it, and `util::ranges::run_shards`, the one fan-out of the sharded
//! kernels, adds its workers' counts to the caller, so work on other
//! threads never shows. [`crate::report::PhaseTimer`] scopes a phase by
//! differencing two [`snapshot`]s on one thread. Nothing here is
//! process-global. No kernel counts allocations, so `allocs` and
//! `alloc_bytes` read zero in every snapshot; they stay in
//! [`PerfCounters`] because persisted reports carry them. The online
//! update's relabels, dirty links and re-merges are counted once, in its
//! [`UpdateProvenance`](crate::incremental::UpdateProvenance), and
//! reach a report only through the artifact's `update` entry.
//!
//! This module never reads the wall clock ([`crate::report::PhaseTimer`]
//! owns timing) and never panics; counts made during thread teardown are dropped.

use std::cell::Cell;

thread_local! {
    /// This thread's kernel counters.
    static LOCAL: Cell<PerfCounters> = Cell::new(PerfCounters::default());
}

/// Applies `f` to this thread's counters.
fn bump(f: impl FnOnce(&mut PerfCounters)) {
    let _ = LOCAL.try_with(|cell| {
        let mut counters = cell.get();
        f(&mut counters);
        cell.set(counters);
    });
}

/// Runs `work` and returns its output with the counts it made, leaving
/// this thread's counters as they were (a `run_shards` worker's half).
pub(crate) fn measured<T>(work: impl FnOnce() -> T) -> (T, PerfCounters) {
    let before = LOCAL.try_with(Cell::take).unwrap_or_default();
    let out = work();
    let counted = LOCAL.try_with(|c| c.replace(before)).unwrap_or_default();
    (out, counted)
}

/// Adds `counted` to this thread's counters.
pub(crate) fn absorb(counted: &PerfCounters) {
    bump(|c| *c = c.zip(counted, u64::wrapping_add));
}

/// Records `n` link-pairs emitted by a link kernel: the neighbor pairs
/// the sparse kernel counts (Σᵢ mᵢ(mᵢ−1)/2), or the linked pairs the
/// dense kernel finds.
#[inline]
pub(crate) fn count_pairs_emitted(n: u64) {
    bump(|c| c.pairs_emitted = c.pairs_emitted.wrapping_add(n));
}

/// Records `n` bytes of working-set traffic — an estimate of the bytes
/// a kernel writes: a link kernel's output runs plus its CSR, and for
/// the dense link kernel also its bit-row arena.
#[inline]
pub(crate) fn count_bytes_touched(n: u64) {
    bump(|c| c.bytes_touched = c.bytes_touched.wrapping_add(n));
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
pub(crate) fn count_sim_evals(n: u64) {
    bump(|c| c.sim_evals = c.sim_evals.wrapping_add(n));
}

/// Records `n` scratch structures reused instead of
/// freshly allocated (e.g. the merge loop handing a retired link list
/// and candidate heap to the merged cluster).
#[inline]
pub(crate) fn count_scratch_reused(n: u64) {
    bump(|c| c.scratch_reused = c.scratch_reused.wrapping_add(n));
}

/// A point-in-time reading of all counters; subtract two to scope a
/// phase. Kernel counters are this thread's; the allocation and
/// update-path fields are never counted here (see the module docs).
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
    /// Heap allocations: zero in every snapshot, kept for the persisted
    /// report layout.
    pub allocs: u64,
    /// Bytes requested by those allocations: zero in every snapshot.
    pub alloc_bytes: u64,
    /// §4.6 labeling decisions taken by the online update path (an
    /// artifact's `update` entry, from its provenance).
    pub relabels: u64,
    /// Dirty links accumulated by the online update path (likewise).
    pub dirty_links: u64,
    /// Bounded re-merge passes triggered by staleness (likewise).
    pub remerges: u64,
}

impl PerfCounters {
    /// The counters accumulated since `earlier` (saturating, so a stale
    /// baseline never underflows).
    pub fn since(&self, earlier: &PerfCounters) -> PerfCounters {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Combines the two readings field by field.
    fn zip(&self, other: &PerfCounters, op: impl Fn(u64, u64) -> u64) -> PerfCounters {
        PerfCounters {
            pairs_emitted: op(self.pairs_emitted, other.pairs_emitted),
            bytes_touched: op(self.bytes_touched, other.bytes_touched),
            sim_evals: op(self.sim_evals, other.sim_evals),
            scratch_reused: op(self.scratch_reused, other.scratch_reused),
            allocs: op(self.allocs, other.allocs),
            alloc_bytes: op(self.alloc_bytes, other.alloc_bytes),
            relabels: op(self.relabels, other.relabels),
            dirty_links: op(self.dirty_links, other.dirty_links),
            remerges: op(self.remerges, other.remerges),
        }
    }

    /// True when every counter is zero (nothing to report).
    pub(crate) fn is_zero(&self) -> bool {
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

/// Reads this thread's counters.
pub fn snapshot() -> PerfCounters {
    LOCAL.try_with(Cell::get).unwrap_or_default()
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
        let delta = snapshot().since(&before);
        // The counters are this thread's, so every value is exact.
        assert_eq!(
            delta,
            PerfCounters {
                pairs_emitted: 5,
                bytes_touched: 100,
                sim_evals: 7,
                scratch_reused: 2,
                ..PerfCounters::default()
            }
        );
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
    }
}
