//! Neighbor computation (§3.1).
//!
//! A pair of points are *neighbors* if their similarity is at least the
//! user threshold θ: `sim(pᵢ, pⱼ) ≥ θ`. The [`NeighborGraph`] materialises,
//! for every point, the sorted list of its neighbors. Following the paper's
//! worked examples (§3.2, where `{1,2,6}` has exactly 5 links with
//! `{1,2,7}`), a point is **not** its own neighbor.
//!
//! The paper builds the graph with an O(n²) pairwise scan (§4.4: "the
//! list of neighbors for every point can be computed in O(n²) time").
//! Both builders here run one row kernel over contiguous row ranges: row
//! `i` tests only partners `j > i`, so each unordered pair is evaluated
//! at most once, and emits its hit edges in ascending `j`. The kernel
//! finds a row's candidates in one of two ways:
//!
//! * **Item index.** When the measure exposes every point's item set
//!   ([`PairwiseSimilarity::item_set`], e.g. [`crate::similarity::Jaccard`]
//!   through [`crate::similarity::PointsWith`]) and θ > 0, a pair sharing
//!   no item has similarity 0 < θ. Row `i` then runs the shared
//!   item-index probe (`util::postings`) over the points after it, which
//!   tests only the partners sharing an item with the same float
//!   expression [`crate::points::Transaction::jaccard`] uses.
//! * **Brute force** otherwise: every `j > i`.
//!
//! [`NeighborGraph::build`] is the one builder: it splits the rows into
//! cost-balanced shards (`util::ranges::balanced_ranges`), one per thread, or one
//! shard below a size cutoff, and runs them through the crate's one
//! fan-out (`util::ranges::run_shards`). The hit edges are assembled
//! into exact-capacity adjacency lists afterwards; the shard
//! concatenation is the ascending `(i, j)` edge order, so the graph is
//! bit-identical for every thread count and for both candidate sources
//! (see DESIGN.md §"Performance model").

use crate::similarity::PairwiseSimilarity;
use crate::util::postings::{Postings, Probe};
use crate::util::ranges::{balanced_ranges, run_shards};
use std::ops::Range;

/// Below this many pair evaluations the upper-triangle scan completes in
/// tens of microseconds and a worker's spawn and join would dominate, so
/// [`NeighborGraph::build`] scans the rows as one shard on the calling
/// thread whatever the thread count.
const PARALLEL_CUTOFF_PAIRS: u64 = 32 * 1024;

/// The θ-neighbor graph of a point set: `lists[i]` holds the ids of all
/// points `j ≠ i` with `sim(i, j) ≥ θ`, sorted ascending.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborGraph {
    lists: Vec<Vec<u32>>,
    theta: f64,
}

impl NeighborGraph {
    /// Builds the neighbor graph on up to `threads` workers.
    ///
    /// The upper triangle is sharded into contiguous row ranges balanced
    /// by row length (row `i` holds `n−1−i` pairs), one worker per
    /// range, each running the row kernel over a shared, read-only item
    /// index; below `PARALLEL_CUTOFF_PAIRS` pairs, or at one thread,
    /// the calling thread scans every row as one shard. Each unordered
    /// pair is evaluated at most once, by the shard owning its smaller
    /// endpoint: every pair by brute force, only the pairs sharing an
    /// item on the item-indexed path (see the module docs). Each shard
    /// appends its hit edges to one buffer reused across its rows; the
    /// adjacency lists are then assembled in one degree-count +
    /// exact-capacity scatter pass with no per-row reallocation.
    ///
    /// **Determinism:** every row emits its edges in ascending partner
    /// order, so the shard buffers concatenate to the ascending `(i, j)`
    /// edge order for any shard split, and the graph is bit-identical
    /// for every `threads`.
    ///
    /// # Panics
    /// Panics if `threads == 0`, `theta` is not in `[0, 1]` or the point
    /// set has more than `u32::MAX` points.
    pub fn build<S: PairwiseSimilarity + Sync>(sim: &S, theta: f64, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let n = checked_len(sim, theta);
        let pairs = n as u64 * (n as u64).saturating_sub(1) / 2;
        let threads = if pairs < PARALLEL_CUTOFF_PAIRS {
            1
        } else {
            threads
        };
        let shards = balanced_ranges(n, threads, |i| (n - 1 - i) as u64);
        let index = item_index(sim, theta);
        let index = index.as_ref();
        let edges = run_shards(shards, |rows| {
            let mut hits = Vec::new();
            RowScan::new(sim, theta, index).scan(rows, &mut hits);
            hits
        });
        Self::assemble(n, &edges, theta)
    }

    /// Exact-capacity assembly of the shards' hit edges, given in
    /// ascending `(i, j)` order with `i < j`. Scanning them in that order
    /// fills each list ascending: row r first receives its smaller
    /// partners h (from edges (h, r), ascending h), then its larger
    /// partners j (from edges (r, j), ascending j).
    fn assemble(n: usize, shards: &[Vec<(u32, u32)>], theta: f64) -> Self {
        let mut degree = vec![0usize; n];
        for &(i, j) in shards.iter().flatten() {
            degree[i as usize] += 1;
            degree[j as usize] += 1;
        }
        let mut lists: Vec<Vec<u32>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(i, j) in shards.iter().flatten() {
            lists[i as usize].push(j);
            lists[j as usize].push(i);
        }
        debug_assert!(lists.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
        NeighborGraph { lists, theta }
    }

    /// Constructs a graph directly from adjacency lists (for tests and
    /// generators). Lists are sorted and deduplicated; self-loops are
    /// removed; symmetry is enforced by mirroring every edge.
    pub fn from_lists(mut lists: Vec<Vec<u32>>, theta: f64) -> Self {
        let n = lists.len();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (i, l) in lists.iter().enumerate() {
            for &j in l {
                assert!((j as usize) < n, "neighbor id out of range");
                if j as usize != i {
                    edges.push((i as u32, j));
                }
            }
        }
        for l in &mut lists {
            l.clear();
        }
        for (i, j) in edges {
            lists[i as usize].push(j);
            lists[j as usize].push(i);
        }
        for l in &mut lists {
            l.sort_unstable();
            l.dedup();
        }
        NeighborGraph { lists, theta }
    }

    /// The similarity threshold θ the graph was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The sorted neighbor list of point `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.lists[i]
    }

    /// Number of neighbors of point `i` (`mᵢ` in the paper's complexity
    /// analysis).
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.lists[i].len()
    }

    /// Whether `i` and `j` are neighbors.
    pub fn are_neighbors(&self, i: usize, j: usize) -> bool {
        self.lists[i].binary_search(&(j as u32)).is_ok()
    }

    /// Average neighbor count `m_a`.
    pub fn average_degree(&self) -> f64 {
        if self.lists.is_empty() {
            return 0.0;
        }
        self.lists.iter().map(Vec::len).sum::<usize>() as f64 / self.lists.len() as f64
    }

    /// Rough heap footprint in bytes, for the governed drivers'
    /// charged-memory meter: per-point list headers plus the neighbor
    /// ids themselves.
    pub fn memory_bytes(&self) -> usize {
        let headers = self.lists.len() * std::mem::size_of::<Vec<u32>>();
        let ids: usize = self.lists.iter().map(|l| l.capacity() * 4).sum();
        std::mem::size_of::<Self>() + headers + ids
    }
}

/// Validates the builder's preconditions and returns the point count.
fn checked_len<S: PairwiseSimilarity>(sim: &S, theta: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&theta),
        "theta must be in [0, 1], got {theta}"
    );
    let n = sim.len();
    assert!(u32::try_from(n).is_ok(), "too many points");
    n
}

/// Indexes the points' item sets through the shared gate
/// ([`Postings::index`]): `None` keeps the scan brute force.
fn item_index<S: PairwiseSimilarity>(sim: &S, theta: f64) -> Option<Postings<'_>> {
    Postings::index(theta, (0..sim.len()).map(|i| sim.item_set(i)))
}

/// One worker's row kernel: for each of its rows `i`, appends `(i, j)`
/// for every partner `j > i` with `sim(i, j) ≥ θ`, in ascending `j`. On
/// the item-indexed path it owns the [`Probe`] it reuses from row to row.
///
/// Each scan adds its similarity evaluations to `perf::sim_evals` once,
/// after its rows: every pair by brute force, the touched pairs on the
/// item-indexed path.
struct RowScan<'a, S> {
    sim: &'a S,
    theta: f64,
    probe: Option<Probe<'a>>,
}

impl<'a, S: PairwiseSimilarity> RowScan<'a, S> {
    fn new(sim: &'a S, theta: f64, index: Option<&'a Postings<'a>>) -> Self {
        RowScan {
            sim,
            theta,
            probe: index.map(Probe::new),
        }
    }

    /// Scans `rows`, appending their hit edges to `hits`.
    fn scan(&mut self, rows: Range<usize>, hits: &mut Vec<(u32, u32)>) {
        match self.probe.as_mut() {
            Some(probe) => scan_indexed(probe, self.theta, rows, hits),
            None => self.scan_all(rows, hits),
        }
    }

    /// Brute force: tests every partner `j > i`.
    fn scan_all(&mut self, rows: Range<usize>, hits: &mut Vec<(u32, u32)>) {
        let n = self.sim.len();
        let mut evals = 0u64;
        // tidy:kernel-hot-loop — upper-triangle similarity scan
        for i in rows {
            for j in (i + 1)..n {
                if self.sim.sim(i, j) >= self.theta {
                    hits.push((i as u32, j as u32));
                }
            }
            evals += (n - 1 - i) as u64;
        }
        // tidy:end-kernel-hot-loop
        crate::perf::count_sim_evals(evals);
    }
}

/// Item index: probes each row `i` with its own items from `i + 1`, so
/// each pair is touched from its smaller endpoint only.
fn scan_indexed(probe: &mut Probe<'_>, theta: f64, rows: Range<usize>, hits: &mut Vec<(u32, u32)>) {
    let mut evals = 0u64;
    // tidy:kernel-hot-loop — item-indexed row scan
    for i in rows {
        let items = probe.index().items(i);
        let row_start = hits.len();
        evals += probe.run(items, i as u32 + 1, theta, |j| hits.push((i as u32, j)));
        // First-touch order is not partner order; the row's hits are
        // few, so sorting them is cheap.
        hits[row_start..].sort_unstable();
    }
    // tidy:end-kernel-hot-loop
    crate::perf::count_sim_evals(evals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    /// §1.1 Example 1.1's four transactions.
    fn example_1_1() -> Vec<Transaction> {
        vec![
            Transaction::from([1, 2, 3, 5]),
            Transaction::from([2, 3, 4, 5]),
            Transaction::from([1, 4]),
            Transaction::from([6]),
        ]
    }

    #[test]
    fn neighbors_at_positive_threshold() {
        // "a pair of transactions are neighbors if they contain at least
        // one item in common": any θ in (0, 0.2] realises this for these
        // transactions. {6} is isolated.
        let pts = example_1_1();
        let g = NeighborGraph::build(&PointsWith::new(&pts, Jaccard), 0.1, 1);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn theta_one_keeps_only_identical() {
        let pts = vec![
            Transaction::from([1, 2]),
            Transaction::from([1, 2]),
            Transaction::from([1, 3]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&pts, Jaccard), 1.0, 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn theta_zero_connects_everything() {
        let pts = example_1_1();
        let g = NeighborGraph::build(&PointsWith::new(&pts, Jaccard), 0.0, 1);
        for i in 0..4 {
            assert_eq!(g.degree(i), 3, "point {i}");
        }
        assert_eq!(g.average_degree(), 3.0);
    }

    #[test]
    fn lists_are_sorted_and_symmetric() {
        let m = SimilarityMatrix::from_fn(20, |i, j| if (i + j) % 3 == 0 { 0.9 } else { 0.1 });
        let g = NeighborGraph::build(&m, 0.5, 1);
        for i in 0..20 {
            let l = g.neighbors(i);
            assert!(l.windows(2).all(|w| w[0] < w[1]), "unsorted list at {i}");
            for &j in l {
                assert!(g.are_neighbors(j as usize, i), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn sorted_invariant_holds_for_one_and_many_shards() {
        // The "lists sorted" invariant follows from the ascending edge
        // order every shard split hands to the shared assembly; one
        // shard and four must both yield strictly ascending (no
        // duplicate), symmetric, self-loop-free lists.
        let m = SimilarityMatrix::from_fn(301, |i, j| {
            ((i * j).wrapping_mul(2654435761) % 1000) as f64 / 1000.0
        });
        for (which, g) in [
            ("serial", NeighborGraph::build(&m, 0.55, 1)),
            ("parallel", NeighborGraph::build(&m, 0.55, 4)),
        ] {
            for i in 0..g.len() {
                let l = g.neighbors(i);
                assert!(
                    l.windows(2).all(|w| w[0] < w[1]),
                    "{which}: unsorted or duplicated list at {i}"
                );
                assert!(!g.are_neighbors(i, i), "{which}: self-loop at {i}");
                for &j in l {
                    assert!(
                        g.are_neighbors(j as usize, i),
                        "{which}: asymmetric edge {i}-{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let m = SimilarityMatrix::from_fn(300, |i, j| {
            // deterministic pseudo-random pattern
            let h = (i * 2654435761 + j * 40503) % 1000;
            h as f64 / 1000.0
        });
        let serial = NeighborGraph::build(&m, 0.7, 1);
        for threads in [1, 2, 3, 8] {
            let par = NeighborGraph::build(&m, 0.7, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_evaluates_each_pair_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting(SimilarityMatrix, AtomicU64);
        impl PairwiseSimilarity for Counting {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn sim(&self, i: usize, j: usize) -> f64 {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.sim(i, j)
            }
        }
        let n = 300;
        let m = SimilarityMatrix::from_fn(n, |i, j| {
            ((i * j).wrapping_mul(2654435761) % 1000) as f64 / 1000.0
        });
        let counting = Counting(m, AtomicU64::new(0));
        let _ = NeighborGraph::build(&counting, 0.5, 4);
        assert_eq!(
            counting.1.load(Ordering::Relaxed),
            (n as u64) * (n as u64 - 1) / 2,
            "each unordered pair must be evaluated exactly once"
        );
    }

    #[test]
    fn index_is_built_only_where_it_is_exact() {
        let pts = example_1_1();
        let jaccard = PointsWith::new(&pts, Jaccard);
        assert!(item_index(&jaccard, 0.1).is_some());
        assert!(item_index(&&jaccard, 0.1).is_some());
        assert!(item_index(&jaccard, 0.0).is_none());
        assert!(item_index(&SimilarityMatrix::new(4), 0.1).is_none());
        let spread = vec![Transaction::from([0, u32::MAX]), Transaction::from([1])];
        assert!(item_index(&PointsWith::new(&spread, Jaccard), 0.1).is_none());
    }

    #[test]
    fn from_lists_enforces_invariants() {
        let g = NeighborGraph::from_lists(vec![vec![1, 1, 0], vec![], vec![0]], 0.5);
        assert_eq!(g.neighbors(0), &[1, 2]); // self-loop dropped, dup removed, 2 mirrored
        assert_eq!(g.neighbors(1), &[0]); // mirrored from 0's list
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn empty_graph() {
        let m = SimilarityMatrix::new(0);
        let g = NeighborGraph::build(&m, 0.5, 1);
        assert!(g.is_empty());
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1]")]
    fn invalid_theta_panics() {
        let m = SimilarityMatrix::new(2);
        let _ = NeighborGraph::build(&m, 1.5, 1);
    }
}
