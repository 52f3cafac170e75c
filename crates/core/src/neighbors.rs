//! Neighbor computation (§3.1).
//!
//! A pair of points are *neighbors* if their similarity is at least the
//! user threshold θ: `sim(pᵢ, pⱼ) ≥ θ`. The [`NeighborGraph`] materialises,
//! for every point, the sorted list of its neighbors. Following the paper's
//! worked examples (§3.2, where `{1,2,6}` has exactly 5 links with
//! `{1,2,7}`), a point is **not** its own neighbor.
//!
//! Building the graph is the O(n²) pairwise scan the paper assumes (§4.4:
//! "the list of neighbors for every point can be computed in O(n²) time").
//! [`NeighborGraph::build_parallel`] shards the *upper triangle* across
//! rayon scoped workers — each unordered pair is evaluated exactly once,
//! by the worker owning its smaller endpoint — and the hit edges are
//! assembled into exact-capacity adjacency lists afterwards. The shard
//! concatenation reproduces the serial scan's ascending edge order, so
//! the result is bit-identical to the sequential scan for every thread
//! count (see DESIGN.md §"Performance model").

use crate::similarity::PairwiseSimilarity;
use crate::util::balanced_ranges;

/// Below this many pair evaluations the upper-triangle scan completes in
/// tens of microseconds and thread spawn/join dominates, so
/// [`NeighborGraph::build_parallel`] falls back to the serial scan.
const PARALLEL_CUTOFF_PAIRS: u64 = 32 * 1024;

/// The θ-neighbor graph of a point set: `lists[i]` holds the ids of all
/// points `j ≠ i` with `sim(i, j) ≥ θ`, sorted ascending.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborGraph {
    lists: Vec<Vec<u32>>,
    theta: f64,
}

impl NeighborGraph {
    /// Builds the neighbor graph with a single-threaded pairwise scan.
    ///
    /// Each unordered pair is evaluated exactly once.
    ///
    /// # Panics
    /// Panics if `theta` is not in `[0, 1]` or the point set has more than
    /// `u32::MAX` points.
    pub fn build<S: PairwiseSimilarity>(sim: &S, theta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&theta),
            "theta must be in [0, 1], got {theta}"
        );
        let n = sim.len();
        assert!(u32::try_from(n).is_ok(), "too many points");
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if sim.sim(i, j) >= theta {
                    lists[i].push(j as u32);
                    lists[j].push(i as u32);
                }
            }
        }
        crate::perf::count_sim_evals(n as u64 * (n as u64).saturating_sub(1) / 2);
        // The upper-triangle scan happens to emit each list in ascending
        // order, but the "lists sorted" invariant every consumer relies on
        // (binary_search in are_neighbors, merge joins in the link
        // kernels) is enforced here, in one place, rather than implied by
        // push order. Sorting an already-sorted run is a linear-time scan
        // for the pattern-defeating quicksort behind sort_unstable.
        for l in &mut lists {
            l.sort_unstable();
        }
        NeighborGraph { lists, theta }
    }

    /// Builds the neighbor graph using `threads` rayon workers.
    ///
    /// The upper triangle is sharded into contiguous row ranges balanced
    /// by row length (row `i` holds `n−1−i` pairs), one rayon task per
    /// range; each unordered pair is evaluated **exactly once**, by the
    /// worker owning its smaller endpoint. Workers append hit edges to a
    /// single per-worker buffer reused across all their rows; the final
    /// adjacency lists are then assembled in one degree-count +
    /// exact-capacity scatter pass with no per-row reallocation. (The
    /// previous design evaluated every pair twice to avoid
    /// synchronisation, which could never beat the serial scan by more
    /// than ~2× and lost to it outright on few cores.)
    ///
    /// **Determinism:** the shard buffers concatenate to the serial
    /// scan's ascending `(i, j)` edge order — for any shard split — so
    /// every list fills ascending (smaller partners first) and the
    /// result is bit-identical to [`NeighborGraph::build`] for every
    /// `threads`.
    ///
    /// # Panics
    /// Panics if `theta ∉ [0, 1]` or `threads == 0`.
    pub fn build_parallel<S: PairwiseSimilarity + Sync>(
        sim: &S,
        theta: f64,
        threads: usize,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&theta),
            "theta must be in [0, 1], got {theta}"
        );
        assert!(threads > 0, "need at least one thread");
        let n = sim.len();
        assert!(u32::try_from(n).is_ok(), "too many points");
        let pairs = n as u64 * (n as u64).saturating_sub(1) / 2;
        if threads == 1 || pairs < PARALLEL_CUTOFF_PAIRS {
            return Self::build(sim, theta);
        }
        let shards = balanced_ranges(n, threads, |i| (n - 1 - i) as u64);
        let mut edges: Vec<Vec<(u32, u32)>> = Vec::with_capacity(shards.len());
        edges.resize_with(shards.len(), Vec::new);
        rayon::scope(|scope| {
            for (range, out) in shards.iter().zip(edges.iter_mut()) {
                let range = range.clone();
                scope.spawn(move |_| {
                    // One hit buffer per worker, reused across its rows.
                    let mut hits: Vec<(u32, u32)> = Vec::new();
                    // tidy:kernel-hot-loop — upper-triangle similarity scan
                    for i in range {
                        for j in (i + 1)..n {
                            if sim.sim(i, j) >= theta {
                                hits.push((i as u32, j as u32));
                            }
                        }
                    }
                    // tidy:end-kernel-hot-loop
                    *out = hits;
                });
            }
        });
        crate::perf::count_sim_evals(pairs);
        // Exact-capacity assembly. Scanning edges in ascending (i, j)
        // order fills each list ascending: row r first receives its
        // smaller partners h (from edges (h, r), ascending h), then its
        // larger partners j (from edges (r, j), ascending j).
        let mut degree = vec![0usize; n];
        for &(i, j) in edges.iter().flatten() {
            degree[i as usize] += 1;
            degree[j as usize] += 1;
        }
        let mut lists: Vec<Vec<u32>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(i, j) in edges.iter().flatten() {
            lists[i as usize].push(j);
            lists[j as usize].push(i);
        }
        debug_assert!(lists
            .iter()
            .all(|l| l.windows(2).all(|w| w[0] < w[1])));
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

    /// Maximum neighbor count `m_m`.
    pub fn max_degree(&self) -> usize {
        self.lists.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Rough heap footprint in bytes, for the governed drivers'
    /// charged-memory meter: per-point list headers plus the neighbor
    /// ids themselves.
    pub fn memory_bytes(&self) -> usize {
        let headers = self.lists.len() * std::mem::size_of::<Vec<u32>>();
        let ids: usize = self.lists.iter().map(|l| l.capacity() * 4).sum();
        std::mem::size_of::<Self>() + headers + ids
    }

    /// Ids of points with fewer than `min_neighbors` neighbors — the
    /// "relatively isolated" points §4.6 discards as outliers before
    /// clustering.
    pub fn isolated_points(&self, min_neighbors: usize) -> Vec<u32> {
        self.lists
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len() < min_neighbors)
            .map(|(i, _)| i as u32)
            .collect()
    }
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
        let g = NeighborGraph::build(&PointsWith::new(&pts, Jaccard), 0.1);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.isolated_points(1), vec![3]);
    }

    #[test]
    fn theta_one_keeps_only_identical() {
        let pts = vec![
            Transaction::from([1, 2]),
            Transaction::from([1, 2]),
            Transaction::from([1, 3]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&pts, Jaccard), 1.0);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn theta_zero_connects_everything() {
        let pts = example_1_1();
        let g = NeighborGraph::build(&PointsWith::new(&pts, Jaccard), 0.0);
        for i in 0..4 {
            assert_eq!(g.degree(i), 3, "point {i}");
        }
        assert_eq!(g.average_degree(), 3.0);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn lists_are_sorted_and_symmetric() {
        let m = SimilarityMatrix::from_fn(20, |i, j| if (i + j) % 3 == 0 { 0.9 } else { 0.1 });
        let g = NeighborGraph::build(&m, 0.5);
        for i in 0..20 {
            let l = g.neighbors(i);
            assert!(l.windows(2).all(|w| w[0] < w[1]), "unsorted list at {i}");
            for &j in l {
                assert!(g.are_neighbors(j as usize, i), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn sorted_invariant_holds_for_both_builders() {
        // The "lists sorted" invariant is enforced by the post-pass sort in
        // `build` and by per-row ascending scans in `build_parallel`; both
        // must yield strictly ascending (no duplicate), symmetric,
        // self-loop-free lists.
        let m = SimilarityMatrix::from_fn(301, |i, j| {
            ((i * j).wrapping_mul(2654435761) % 1000) as f64 / 1000.0
        });
        for (which, g) in [
            ("serial", NeighborGraph::build(&m, 0.55)),
            ("parallel", NeighborGraph::build_parallel(&m, 0.55, 4)),
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
        let serial = NeighborGraph::build(&m, 0.7);
        for threads in [1, 2, 3, 8] {
            let par = NeighborGraph::build_parallel(&m, 0.7, threads);
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
        let _ = NeighborGraph::build_parallel(&counting, 0.5, 4);
        assert_eq!(
            counting.1.load(Ordering::Relaxed),
            (n as u64) * (n as u64 - 1) / 2,
            "each unordered pair must be evaluated exactly once"
        );
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
        let g = NeighborGraph::build(&m, 0.5);
        assert!(g.is_empty());
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1]")]
    fn invalid_theta_panics() {
        let m = SimilarityMatrix::new(2);
        let _ = NeighborGraph::build(&m, 1.5);
    }
}
