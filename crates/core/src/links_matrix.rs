//! Link counts (§3.2, §4.4, Fig. 4) in their one representation, the
//! CSR [`LinkMatrix`].
//!
//! `link(p, q) = |N(p) ∩ N(q)|`, the number of common neighbors of `p`
//! and `q` — entry (p, q) of `A·A` for the 0/1 neighbor adjacency
//! matrix `A` (§4.4). [`LinkMatrix`] stores, for every point, the
//! ascending list of partners it shares a neighbor with as compressed
//! sparse rows: one `offsets` array plus parallel `cols`/`counts` arrays
//! holding both directions of every linked pair. Lookups are a binary
//! search in a contiguous row, iteration is a linear scan.
//!
//! Two kernels build it, selected by [`LinkMatrix::compute_auto`]:
//!
//! * [`LinkMatrix::compute_sparse`] — the row-wise (Gustavson) sparse
//!   product `A·A`, upper triangle only. Row `j` adds one link to a
//!   dense per-worker counter for every `m ∈ N(j)` and every
//!   `l ∈ N(m)` with `l > j`, remembering which counters it touched,
//!   then emits those partners sorted and resets them. That is Fig. 4's
//!   work — each neighbor pair of each point counted once — ordered so
//!   that every output row is finished before the next one starts:
//!   O(n) scratch per worker and no pair buffer. Contiguous row ranges
//!   of equal accumulate count go to the workers; each writes its rows'
//!   sorted run outright, and the runs concatenate in shard order into
//!   the CSR with no merge step. A row's counts do not depend on which
//!   shard computes it, so the output is **bit-identical for every
//!   thread count and every shard split** (proptest-pinned in
//!   `tests/kernel_invariance.rs`).
//! * [`LinkMatrix::compute_dense`] — §4.4's boolean `A²`, squared one
//!   connected component at a time. Two points share a neighbor only
//!   inside one component, so `A` and `A²` are block-diagonal under the
//!   component order. Each point's bit row spans only its component,
//!   indexed by position in the ascending member list, and is
//!   popcount-ANDed against the rows of the members after it. Workers
//!   own contiguous ranges of global rows and write their sorted runs
//!   outright, so again no merge order can affect the result.
//!
//! [`LinkMatrix::compute_auto`] labels the components once and prices
//! both kernels with it ([`LinkMatrix::choose_kernel`]).
//! `tests/merge_reference.rs` checks both kernels, every shard split and
//! the selector against a plain `|N(p) ∩ N(q)|` count.
//! [`LinkMatrix::from_pairs`] wraps links computed elsewhere (such as the
//! bench crate's length-3 ablation) for the merge loop. See DESIGN.md
//! §7 "Performance model" for the kernel layouts.

use std::ops::Range;

use crate::components::Components;
use crate::neighbors::NeighborGraph;
use crate::util::ranges::{balanced_ranges, run_shards};

/// Price of one row-kernel scratch increment, in dense-kernel word
/// operations (measured; see [`LinkMatrix::choose_kernel`]).
const SPARSE_INCREMENT_COST: f64 = 1.2;

/// Price of one pair the dense kernel visits, on top of its words, in
/// word operations (measured; see [`LinkMatrix::choose_kernel`]).
const DENSE_PAIR_COST: f64 = 3.4;

/// Which link-construction kernel to run (see
/// [`LinkMatrix::choose_kernel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKernel {
    /// The row-wise sparse product `A·A` (Fig. 4's work, row by row).
    Sparse,
    /// The §4.4 boolean matrix square over bit-packed rows, one
    /// connected component at a time.
    Dense,
}

/// Symmetric link counts in compressed-sparse-row form.
///
/// Row `i` lists, ascending, every `j` with `link(i, j) > 0` together
/// with the count; every linked pair therefore appears twice, once per
/// endpoint. No row lists its own point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkMatrix {
    /// Row boundaries: row `i` occupies `cols[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
    /// Partner ids, ascending within each row.
    cols: Vec<u32>,
    /// Link counts, parallel to `cols`.
    counts: Vec<u32>,
}

impl LinkMatrix {
    /// An empty matrix over `n` points.
    pub fn new(n: usize) -> Self {
        LinkMatrix {
            offsets: vec![0; n + 1],
            cols: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Number of points the matrix is defined over.
    pub fn num_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The link count of the pair `{i, j}` (0 if absent or `i == j`).
    #[inline]
    pub fn count(&self, i: usize, j: usize) -> u32 {
        let (cols, counts) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => counts[pos],
            Err(_) => 0,
        }
    }

    /// Row `i` as `(partner ids, counts)` slices, partners ascending.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[u32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.cols[lo..hi], &self.counts[lo..hi])
    }

    /// Number of point pairs with at least one link.
    pub fn num_linked_pairs(&self) -> usize {
        debug_assert!(self.cols.len().is_multiple_of(2));
        self.cols.len() / 2
    }

    /// Total number of links over all pairs.
    pub fn total_links(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum::<u64>() / 2
    }

    /// Iterates over `((i, j), count)` with `i < j`, ascending by `(i, j)`.
    pub fn iter_upper(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        (0..self.num_points()).flat_map(move |i| {
            let (cols, counts) = self.row(i);
            let start = cols.partition_point(|&j| (j as usize) <= i);
            cols[start..]
                .iter()
                .zip(&counts[start..])
                .map(move |(&j, &c)| ((i as u32, j), c))
        })
    }

    /// Builds a matrix over `n` points from upper-triangle
    /// `(i, j, count)` triples computed outside the kernels, such as an
    /// alternative link definition. The triples may come in any order;
    /// pairs with a zero count are dropped.
    ///
    /// # Panics
    /// Panics if some `i >= j`, some `j >= n`, or a pair repeats.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32, u32)]) -> Self {
        let mut keyed: Vec<(u64, u32)> = pairs
            .iter()
            .map(|&(i, j, c)| {
                assert!(i < j, "links need i < j, got ({i}, {j})");
                assert!((j as usize) < n, "point id {j} out of range for {n} points");
                (pack(i, j), c)
            })
            .collect();
        keyed.sort_unstable_by_key(|&(key, _)| key);
        for w in keyed.windows(2) {
            // tidy-allow(panic-reach): windows(2) yields exactly two entries
            let (a, b) = (w[0].0, w[1].0);
            assert!(a != b, "link pair {:?} repeated", unpack(a));
        }
        keyed.retain(|&(_, c)| c > 0);
        Self::assemble_runs(n, std::slice::from_ref(&keyed))
    }

    /// Approximate heap footprint in bytes (for memory charges and
    /// benchmark reports).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.counts.len() * 4
    }

    /// Pairs whose smaller endpoint is `j`, over the whole graph.
    ///
    /// Point `i`'s ascending neighbor list contributes `mᵢ−1−a` pairs
    /// with smaller endpoint `nbrs[a]`, so one O(Σmᵢ) sweep prices every
    /// CSR row before any link is counted. `hist[j]` is exactly the
    /// number of increments row `j` makes in the row kernel (one per
    /// `m ∈ N(j)`, `l ∈ N(m)`, `l > j`), so it is both the shard
    /// balancer and the `pairs_emitted` total.
    fn smaller_endpoint_histogram(graph: &NeighborGraph) -> Vec<usize> {
        let n = graph.len();
        let mut hist = vec![0usize; n];
        for i in 0..n {
            let nbrs = graph.neighbors(i);
            let m = nbrs.len();
            for (a, &j) in nbrs.iter().enumerate() {
                hist[j as usize] += m - 1 - a;
            }
        }
        hist
    }

    /// Fig. 4 as the row-wise sparse product `A·A`, sharded by row.
    /// `threads == 1` runs the same kernel on one shard; output is
    /// identical for every `threads`.
    ///
    /// Shard boundaries balance accumulate count (not row count — a
    /// shard of a few hub rows can weigh as much as thousands of sparse
    /// rows), and each worker owns a contiguous CSR row range whose
    /// sorted `(key, count)` run it writes outright. Runs occupy disjoint
    /// ascending key ranges, so assembly is a concatenated scan with no
    /// merge step.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn compute_sparse(graph: &NeighborGraph, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let hist = Self::smaller_endpoint_histogram(graph);
        let shards = balanced_ranges(graph.len(), threads, |j| hist[j] as u64);
        Self::compute_sparse_on(graph, &hist, &shards)
    }

    /// Runs the sparse kernel over an explicit shard split — the test
    /// seam for adversarial shard-boundary invariance. `shards` must
    /// partition `0..graph.len()` into contiguous, non-overlapping,
    /// ascending ranges (empty ranges are allowed).
    #[doc(hidden)]
    pub fn compute_sparse_ranges(graph: &NeighborGraph, shards: &[Range<usize>]) -> Self {
        let hist = Self::smaller_endpoint_histogram(graph);
        Self::compute_sparse_on(graph, &hist, shards)
    }

    /// The sharded row-kernel body shared by [`Self::compute_sparse`]
    /// and [`Self::compute_sparse_ranges`].
    ///
    /// For each row `j` of its range a worker adds one to `scratch[l]`
    /// for every `m ∈ N(j)` and every `l ∈ N(m)` with `l > j` (neighbor
    /// lists are ascending, so that is a suffix found by binary search),
    /// recording each counter it lifts off zero. It then sorts the
    /// touched partners, emits row `j`'s `(j, l, count)` triples and
    /// zeroes exactly those counters. Scratch is one n-sized counter row
    /// and one touched list per worker, allocated outside the loop.
    fn compute_sparse_on(
        graph: &NeighborGraph,
        hist: &[usize],
        shards: &[Range<usize>],
    ) -> Self {
        let n = graph.len();
        debug_assert_eq!(shards.iter().map(|r| r.len()).sum::<usize>(), n);
        debug_assert!(shards.windows(2).all(|w| w[0].end == w[1].start));

        let runs = run_shards(shards.iter().cloned(), |rows| {
            let mut pairs: Vec<(u64, u32)> = Vec::new();
            if rows.is_empty() {
                return pairs;
            }
            let mut scratch = vec![0u32; n];
            let mut touched: Vec<u32> = Vec::new();
            // tidy:kernel-hot-loop — accumulate, then emit, one upper-triangle row of A·A
            for j in rows {
                for &m in graph.neighbors(j) {
                    let nbrs = graph.neighbors(m as usize);
                    let above = nbrs.partition_point(|&l| (l as usize) <= j);
                    for &l in &nbrs[above..] {
                        if scratch[l as usize] == 0 {
                            touched.push(l);
                        }
                        scratch[l as usize] += 1;
                    }
                }
                touched.sort_unstable();
                for &l in &touched {
                    pairs.push((pack(j as u32, l), scratch[l as usize]));
                    scratch[l as usize] = 0;
                }
                touched.clear();
            }
            // tidy:end-kernel-hot-loop
            pairs
        });

        let emitted: usize = hist.iter().sum();
        crate::perf::count_pairs_emitted(emitted as u64);
        let run_bytes: usize = runs
            .iter()
            .map(|run| run.len() * std::mem::size_of::<(u64, u32)>())
            .sum();
        let matrix = Self::assemble_runs(n, &runs);
        crate::perf::count_bytes_touched((run_bytes + matrix.memory_bytes()) as u64);
        matrix
    }

    /// §4.4's boolean matrix square, one connected component at a time.
    /// Output is identical to [`Self::compute_sparse`].
    ///
    /// A link needs a common neighbor, so both endpoints lie in one
    /// component: under the component order `A` is block-diagonal, and
    /// so is `A²`. Each point's bit row therefore spans only its own
    /// component of `c` points, bit `b` standing for the component's
    /// `b`-th smallest member, in `⌈c/64⌉` words of one flat arena. Row
    /// `i` is popcount-ANDed against the rows of the members after it,
    /// which are exactly its upper-triangle partners, in ascending order.
    /// The whole-graph square is the one-component case.
    ///
    /// Workers own contiguous ranges of global rows, balanced by
    /// `(c − local index) · ⌈c/64⌉` word operations per row, and write
    /// their rows' sorted runs outright, as the sparse kernel does.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn compute_dense(graph: &NeighborGraph, threads: usize) -> Self {
        Self::compute_dense_on(graph, &Components::of(graph), threads)
    }

    /// [`Self::compute_dense`] over a precomputed component labeling.
    fn compute_dense_on(graph: &NeighborGraph, components: &Components, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let n = graph.len();
        // Component c's rows start at word `base[c]` of the arena.
        let mut base = Vec::with_capacity(components.len());
        let mut arena_words = 0;
        for c in components.sizes() {
            base.push(arena_words);
            arena_words += c * c.div_ceil(64);
        }
        let mut arena = vec![0u64; arena_words];
        for p in 0..n {
            let comp = components.component(p);
            let words = components.members(comp).len().div_ceil(64);
            let row = base[comp] + components.local(p) * words;
            for &q in graph.neighbors(p) {
                let b = components.local(q as usize);
                arena[row + b / 64] |= 1u64 << (b % 64);
            }
        }
        let (arena, base) = (&arena, &base);

        let row_cost = |p: usize| {
            let c = components.members(components.component(p)).len();
            ((c - components.local(p)) * c.div_ceil(64)) as u64
        };
        let shards = balanced_ranges(n, threads, row_cost);
        let runs = run_shards(shards, |rows| {
            let mut pairs: Vec<(u64, u32)> = Vec::new();
            // tidy:kernel-hot-loop — popcount one row against the later rows of its block
            for p in rows {
                let comp = components.component(p);
                let members = components.members(comp);
                let words = members.len().div_ceil(64);
                let a = components.local(p);
                let block = &arena[base[comp]..base[comp] + members.len() * words];
                let (head, later) = block.split_at((a + 1) * words);
                let row = &head[a * words..];
                for (other, &q) in later.chunks_exact(words).zip(&members[a + 1..]) {
                    let c: u32 = row
                        .iter()
                        .zip(other)
                        .map(|(x, y)| (x & y).count_ones())
                        .sum();
                    if c > 0 {
                        pairs.push((pack(p as u32, q), c));
                    }
                }
            }
            // tidy:end-kernel-hot-loop
            pairs
        });

        // Count emitted pairs like the sparse kernel does, so reports
        // stay comparable whichever kernel the auto heuristic picks.
        let linked: usize = runs.iter().map(Vec::len).sum();
        crate::perf::count_pairs_emitted(linked as u64);
        let matrix = Self::assemble_runs(n, &runs);
        let run_bytes = linked * std::mem::size_of::<(u64, u32)>();
        crate::perf::count_bytes_touched(
            (arena_words * 8 + run_bytes + matrix.memory_bytes()) as u64,
        );
        matrix
    }

    /// Runs the kernel [`choose_kernel`](Self::choose_kernel) picks for
    /// `graph`. Both kernels produce the same matrix, so the choice only
    /// affects speed and memory.
    pub fn compute_auto(graph: &NeighborGraph, threads: usize) -> Self {
        let components = Components::of(graph);
        let kernel = Self::choose_on(graph, &components);
        Self::compute_kernel(graph, &components, threads, kernel)
    }

    /// The kernel [`compute_auto`](Self::compute_auto) runs for `graph`,
    /// exposed so budget-aware drivers can veto the dense kernel's
    /// arena *before* allocating it (see
    /// [`crate::governor::DegradationPolicy::SparseLinks`]).
    ///
    /// The row kernel makes `Σᵢ mᵢ(mᵢ−1)/2 ≈ Σᵢ mᵢ²/2` scratch
    /// increments, one per neighbor pair. The dense kernel visits
    /// `Σ_c c²/2` pairs over the component sizes `c`, each costing a
    /// fixed overhead plus `⌈c/64⌉` popcount-AND word operations. Prices
    /// are in word operations: 1.2 per increment and 3.4 per visited
    /// pair. They come from least-squares fits of one-thread kernel
    /// times on an Intel Xeon (2 shared vCPUs, no hardware popcount in
    /// the build) over 78 graphs: the rockbench fit shapes, the links
    /// bench shapes and the online base fit at seeds 42–46 and 60, plus
    /// 12 block-cycle graphs whose visited pairs share almost no
    /// neighbor. The fits gave 1.19 ns per word, 4.0 ns per visited pair
    /// and 1.39 ns per increment. Both kernels then emit the same linked
    /// pairs; the row kernel's per-row sort makes each cost it ~37 ns
    /// more (61 against 24 ns), which is left unpriced because the
    /// linked count is unknown until a kernel runs. Near the crossover
    /// the chooser therefore leans to the row kernel: on the rockbench
    /// `fit_sparse` shape (seed 42) it keeps the row kernel at 12.7–13.9
    /// ms where the dense one takes 10.9–12.7 ms. Both kernels
    /// parallelise evenly, so `threads` does not shift the crossover.
    /// Dense is refused above 64 MiB of bit-row arena
    /// (`Σ_c c · ⌈c/64⌉ · 8` bytes) regardless.
    pub fn choose_kernel(graph: &NeighborGraph) -> LinkKernel {
        Self::choose_on(graph, &Components::of(graph))
    }

    /// [`Self::choose_kernel`] over a precomputed component labeling.
    pub(crate) fn choose_on(graph: &NeighborGraph, components: &Components) -> LinkKernel {
        let sparse_cost: f64 = (0..graph.len())
            .map(|i| {
                let m = graph.degree(i) as f64;
                m * m
            })
            .sum::<f64>()
            / 2.0
            * SPARSE_INCREMENT_COST;
        let dense_cost: f64 = components
            .sizes()
            .map(|c| {
                let c = c as f64;
                c * c / 2.0 * (DENSE_PAIR_COST + (c / 64.0).ceil())
            })
            .sum();
        let arena = Self::dense_arena_bytes(components) as f64;
        if dense_cost < sparse_cost && arena < 64.0 * 1024.0 * 1024.0 {
            LinkKernel::Dense
        } else {
            LinkKernel::Sparse
        }
    }

    /// The dense kernel's bit-row arena in bytes: `Σ_c c · ⌈c/64⌉ · 8`
    /// over the component sizes `c`. The sparse kernel's working set is
    /// one n-sized counter row per worker plus its output runs, roughly
    /// proportional to the output CSR instead.
    pub(crate) fn dense_arena_bytes(components: &Components) -> u64 {
        components
            .sizes()
            .map(|c| (c * c.div_ceil(64) * 8) as u64)
            .sum()
    }

    /// Runs the named kernel over a precomputed component labeling.
    pub(crate) fn compute_kernel(
        graph: &NeighborGraph,
        components: &Components,
        threads: usize,
        kernel: LinkKernel,
    ) -> Self {
        match kernel {
            LinkKernel::Dense => Self::compute_dense_on(graph, components, threads),
            LinkKernel::Sparse => Self::compute_sparse(graph, threads),
        }
    }

    /// Builds the symmetric CSR from upper-triangle `(packed key, count)`
    /// runs whose concatenation is ascending and duplicate-free — the
    /// shape the row-sharded kernel produces (each run owns a disjoint
    /// slice of the key space), and trivially also a single sorted run.
    fn assemble_runs(n: usize, runs: &[Vec<(u64, u32)>]) -> Self {
        debug_assert!({
            let keys: Vec<u64> = runs.iter().flatten().map(|&(k, _)| k).collect();
            keys.windows(2).all(|w| w[0] < w[1])
        });
        let mut degree = vec![0usize; n];
        for &(key, _) in runs.iter().flatten() {
            let (i, j) = unpack(key);
            degree[i as usize] += 1;
            degree[j as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let total = offsets[n];
        let mut cols = vec![0u32; total];
        let mut counts = vec![0u32; total];
        let mut cursor = offsets.clone();
        // Scanning pairs in ascending (i, j) order fills every row
        // ascending: row r first receives partners h < r (from pairs
        // (h, r), ascending h), then partners j > r (from pairs (r, j),
        // ascending j) — all lower-partner pairs sort before any
        // upper-partner pair of the same row.
        for &(key, c) in runs.iter().flatten() {
            let (i, j) = unpack(key);
            cols[cursor[i as usize]] = j;
            counts[cursor[i as usize]] = c;
            cursor[i as usize] += 1;
            cols[cursor[j as usize]] = i;
            counts[cursor[j as usize]] = c;
            cursor[j as usize] += 1;
        }
        debug_assert!((0..n).all(|i| {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            cols[lo..hi].windows(2).all(|w| w[0] < w[1])
        }));
        LinkMatrix {
            offsets,
            cols,
            counts,
        }
    }
}

#[inline]
fn pack(i: u32, j: u32) -> u64 {
    (u64::from(i) << 32) | u64::from(j)
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    fn pseudo_graph(n: usize, theta: f64) -> NeighborGraph {
        let m = SimilarityMatrix::from_fn(n, |i, j| {
            ((i * j).wrapping_mul(2654435761) % 1000) as f64 / 1000.0
        });
        NeighborGraph::build(&m, theta, 1)
    }

    #[test]
    fn sparse_kernel_is_thread_count_invariant() {
        let g = pseudo_graph(150, 0.5);
        let one = LinkMatrix::compute_sparse(&g, 1);
        for threads in [2, 3, 5, 8, 16] {
            assert_eq!(
                LinkMatrix::compute_sparse(&g, threads),
                one,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn adversarial_shard_splits_are_invariant() {
        let g = pseudo_graph(120, 0.5);
        let n = g.len();
        let reference = LinkMatrix::compute_sparse(&g, 1);
        let splits: Vec<Vec<Range<usize>>> = vec![
            vec![0..n],
            vec![0..1, 1..2, 2..n],
            vec![0..n / 2, n / 2..n],
            vec![0..0, 0..n, n..n],
            (0..n).map(|i| i..i + 1).collect(),
            vec![0..n - 1, n - 1..n],
        ];
        for (s, split) in splits.iter().enumerate() {
            assert_eq!(
                LinkMatrix::compute_sparse_ranges(&g, split),
                reference,
                "split #{s}"
            );
        }
    }

    #[test]
    fn dense_kernel_matches_sparse_kernel() {
        for theta in [0.2, 0.5, 0.8] {
            let g = pseudo_graph(120, theta);
            let sparse = LinkMatrix::compute_sparse(&g, 3);
            for threads in [1, 4] {
                assert_eq!(
                    LinkMatrix::compute_dense(&g, threads),
                    sparse,
                    "theta={theta} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn auto_matches_explicit_kernels() {
        for theta in [0.15, 0.9] {
            let g = pseudo_graph(140, theta);
            assert_eq!(
                LinkMatrix::compute_auto(&g, 2),
                LinkMatrix::compute_sparse(&g, 1),
                "theta={theta}"
            );
        }
    }

    #[test]
    fn rows_are_sorted_and_symmetric() {
        let g = pseudo_graph(100, 0.45);
        let m = LinkMatrix::compute_sparse(&g, 4);
        for i in 0..m.num_points() {
            let (cols, counts) = m.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            for (&j, &c) in cols.iter().zip(counts) {
                assert!(c > 0);
                assert_eq!(m.count(j as usize, i), c, "asymmetric ({i},{j})");
            }
        }
    }

    #[test]
    fn iter_upper_is_sorted_and_complete() {
        let g = pseudo_graph(80, 0.5);
        let m = LinkMatrix::compute_sparse(&g, 2);
        let pairs: Vec<((u32, u32), u32)> = m.iter_upper().collect();
        assert_eq!(pairs.len(), m.num_linked_pairs());
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "unsorted pairs");
        for &((i, j), c) in &pairs {
            assert!(i < j);
            assert_eq!(m.count(i as usize, j as usize), c);
        }
    }

    #[test]
    fn from_pairs_round_trips_iter_upper() {
        let g = pseudo_graph(70, 0.55);
        let m = LinkMatrix::compute_sparse(&g, 1);
        let mut triples: Vec<(u32, u32, u32)> =
            m.iter_upper().map(|((i, j), c)| (i, j, c)).collect();
        // Any order is accepted; zero counts are dropped.
        triples.reverse();
        assert_eq!(LinkMatrix::from_pairs(g.len(), &triples), m);
        assert_eq!(LinkMatrix::from_pairs(3, &[(0, 2, 0)]), LinkMatrix::new(3));
    }

    #[test]
    #[should_panic(expected = "i < j")]
    fn from_pairs_rejects_lower_triangle() {
        LinkMatrix::from_pairs(3, &[(2, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "i < j")]
    fn from_pairs_rejects_diagonal() {
        LinkMatrix::from_pairs(3, &[(1, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pairs_rejects_out_of_range() {
        LinkMatrix::from_pairs(3, &[(0, 3, 1)]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn from_pairs_rejects_repeated_pair() {
        LinkMatrix::from_pairs(3, &[(0, 2, 1), (0, 1, 4), (0, 2, 1)]);
    }

    #[test]
    fn links_match_adjacency_matrix_square() {
        // Cross-check both kernels against an O(n³) textbook matrix
        // multiplication (§4.4).
        let m = SimilarityMatrix::from_fn(40, |i, j| ((i * 31 + j * 17) % 10) as f64 / 10.0);
        let g = NeighborGraph::build(&m, 0.5, 1);
        let n = g.len();
        let mut a = vec![vec![0u32; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for &j in g.neighbors(i) {
                row[j as usize] = 1;
            }
        }
        for links in [
            LinkMatrix::compute_sparse(&g, 1),
            LinkMatrix::compute_dense(&g, 1),
        ] {
            for i in 0..n {
                assert_eq!(links.count(i, i), 0, "diagonal ({i},{i})");
                for j in (0..n).filter(|&j| j != i) {
                    let aa: u32 = (0..n).map(|l| a[i][l] * a[l][j]).sum();
                    assert_eq!(links.count(i, j), aa, "pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn paper_example_1_2_pair_counts() {
        // §1.2: pairs containing {1,2} in the same cluster have 5 common
        // neighbors; across clusters only 3.
        let ts = crate::testdata::figure1_transactions();
        let find = |items: [u32; 3]| {
            let t = Transaction::from(items);
            ts.iter().position(|x| *x == t).expect("present")
        };
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let m = LinkMatrix::compute_sparse(&g, 1);
        assert_eq!(m.count(find([1, 2, 3]), find([1, 2, 4])), 5);
        assert_eq!(m.count(find([1, 2, 3]), find([1, 2, 6])), 3);
    }

    #[test]
    fn paper_example_links_figure1() {
        // §3.2: with θ = 0.5, {1,2,6} has 5 links with {1,2,7} and 3 links
        // with {1,2,3}; {1,6,7} has 2 links with {1,2,6} and 0 links with
        // transactions of the big cluster not containing 1, 2, 6 or 7.
        let ts = crate::testdata::figure1_transactions();
        let find = |items: [u32; 3]| {
            let t = Transaction::from(items);
            ts.iter().position(|x| *x == t).expect("present")
        };
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        for m in [
            LinkMatrix::compute_sparse(&g, 1),
            LinkMatrix::compute_auto(&g, 2),
        ] {
            assert_eq!(m.count(find([1, 2, 6]), find([1, 2, 7])), 5);
            assert_eq!(m.count(find([1, 2, 6]), find([1, 2, 3])), 3);
            assert_eq!(m.count(find([1, 6, 7]), find([1, 2, 6])), 2);
            assert_eq!(m.count(find([1, 6, 7]), find([3, 4, 5])), 0);
        }
    }

    #[test]
    fn empty_and_isolated() {
        let empty = LinkMatrix::new(0);
        assert_eq!(empty.num_points(), 0);
        assert_eq!(empty.iter_upper().count(), 0);
        assert_eq!(
            LinkMatrix::compute_sparse_ranges(&NeighborGraph::from_lists(vec![], 0.5), &[]),
            empty
        );

        let g = NeighborGraph::from_lists(vec![vec![], vec![], vec![]], 0.5);
        let m = LinkMatrix::compute_sparse(&g, 2);
        assert_eq!(m.num_points(), 3);
        assert_eq!(m.num_linked_pairs(), 0);
        assert_eq!(m.count(0, 1), 0);

        // A transaction sharing no item with the others has no links.
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([9]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.4, 1);
        let m = LinkMatrix::compute_sparse(&g, 1);
        assert!(m.num_linked_pairs() > 0);
        assert_eq!(m.row(3).0, &[] as &[u32]);
    }

    #[test]
    fn histogram_prices_rows_by_emitted_pairs() {
        let g = pseudo_graph(60, 0.5);
        let hist = LinkMatrix::smaller_endpoint_histogram(&g);
        // Total histogram mass equals the number of neighbor pairs.
        let expected: usize = (0..g.len())
            .map(|i| {
                let m = g.degree(i);
                m * m.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(hist.iter().sum::<usize>(), expected);
    }
}
