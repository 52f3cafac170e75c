//! Cost-balanced contiguous range splitting for sharded kernels, and the
//! one fan-out that runs their shards.

use crate::perf::{self, PerfCounters};
use std::ops::Range;

/// Splits `0..n` into at most `threads` contiguous ranges of roughly
/// equal total `cost`. Never returns an empty range; returns fewer
/// ranges when `n < threads` or the cost mass is concentrated.
///
/// The neighbor scan and both link kernels balance their shards with
/// this function, each supplying its own per-index cost: emitted-pair
/// count for the sparse link kernel, word operations per row for the
/// dense square and upper-triangle row length for the neighbor scan;
/// `run_shards` then runs them. The split only affects which worker
/// computes what — kernel outputs are pinned bit-identical across
/// arbitrary splits by `tests/kernel_invariance.rs`.
pub(crate) fn balanced_ranges(
    n: usize,
    threads: usize,
    cost: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let total: u64 = (0..n).map(&cost).sum();
    let target = total / threads as u64 + 1;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    let mut acc = 0u64;
    for i in 0..n {
        acc += cost(i);
        let remaining_shards = threads - ranges.len();
        if acc >= target && remaining_shards > 1 && i + 1 < n {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
        if ranges.len() + 1 == threads {
            break;
        }
    }
    ranges.push(start..n);
    ranges
}

/// Runs `work` once per shard and returns its outputs in shard order.
///
/// One shard runs on the calling thread; more run on one scoped thread
/// each (`std::thread::scope`), and a panicking worker propagates out of
/// the scope. This is the only fan-out of the sharded kernels: the
/// neighbor scan, both link kernels and the §4.6 batch pass each supply
/// their shards and their per-shard body, which owns its scratch. Each
/// worker's `perf` counts are added to the caller's, so its reading is
/// thread-count invariant.
pub(crate) fn run_shards<I: Send, T: Send>(
    shards: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let shards: Vec<I> = shards.into_iter().collect();
    if shards.len() <= 1 {
        return shards.into_iter().map(work).collect();
    }
    let mut outs: Vec<Option<(T, PerfCounters)>> = Vec::with_capacity(shards.len());
    outs.resize_with(shards.len(), || None);
    let work = &work;
    std::thread::scope(|scope| {
        for (shard, out) in shards.into_iter().zip(outs.iter_mut()) {
            scope.spawn(move || *out = Some(perf::measured(|| work(shard))));
        }
    });
    // Every slot is filled: the scope returns only after all workers
    // completed.
    let (outs, counted): (Vec<T>, Vec<PerfCounters>) = outs.into_iter().flatten().unzip();
    counted.iter().for_each(perf::absorb);
    outs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_cover_everything() {
        for (n, threads) in [(10, 3), (1, 8), (100, 1), (7, 7), (5, 16)] {
            let ranges = balanced_ranges(n, threads, |i| (i as u64 % 5) + 1);
            assert!(ranges.len() <= threads);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap or overlap");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert!(balanced_ranges(0, 4, |_| 1).is_empty());
    }

    #[test]
    fn heavy_head_gets_its_own_shard() {
        // One index carries nearly all the mass: it should not drag the
        // whole prefix into a single shard.
        let ranges = balanced_ranges(8, 4, |i| if i == 0 { 1000 } else { 1 });
        assert_eq!(ranges.first(), Some(&(0..1)));
        assert_eq!(ranges.last().map(|r| r.end), Some(8));
    }

    #[test]
    fn zero_mass_collapses_to_one_range() {
        assert_eq!(balanced_ranges(5, 3, |_| 0), vec![0..5]);
    }

    #[test]
    fn one_shard_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let outs = run_shards(std::iter::once(0..5), |rows| {
            (rows.len(), std::thread::current().id())
        });
        assert_eq!(outs, vec![(5, caller)]);
    }

    #[test]
    fn uneven_shards_come_back_in_shard_order() {
        let shards = vec![0..1, 1..40, 40..43, 43..100, 100..101];
        let outs = run_shards(shards.clone(), |rows| rows.collect::<Vec<usize>>());
        assert_eq!(outs.len(), shards.len());
        for (out, rows) in outs.iter().zip(&shards) {
            assert_eq!(out, &rows.clone().collect::<Vec<_>>());
        }
        assert_eq!(outs.concat(), (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn several_shards_run_off_the_calling_thread() {
        let caller = std::thread::current().id();
        let outs = run_shards(vec![0..2, 2..4, 4..6], |_| std::thread::current().id());
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|&id| id != caller));
    }

    #[test]
    #[should_panic]
    fn a_panicking_shard_panics_out_of_run_shards() {
        run_shards(vec![0..1, 1..2], |rows| {
            assert!(rows.start == 0, "shard {rows:?} failed");
        });
    }

    #[test]
    fn no_shards_return_nothing() {
        let outs = run_shards(Vec::<Range<usize>>::new(), |rows| rows.len());
        assert!(outs.is_empty());
    }
}
