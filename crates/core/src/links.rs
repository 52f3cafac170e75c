//! Link computation (§3.2, §4.4, Fig. 4).
//!
//! `link(pᵢ, pⱼ)` is the number of common neighbors of `pᵢ` and `pⱼ` —
//! equivalently the number of distinct length-2 neighbor paths between
//! them. Two algorithms are provided:
//!
//! * [`compute_links_sparse`] — the paper's Fig. 4: for every point,
//!   increment the counter of every pair of its neighbors. O(Σᵢ mᵢ²) time,
//!   which is O(n·m_m·m_a) and the right choice for the sparse neighbor
//!   graphs ROCK expects in practice.
//! * [`compute_links_dense`] — §4.4's matrix view: links are the square of
//!   the 0/1 adjacency matrix. Since the matrix is boolean, entry (i, j)
//!   is `popcount(rowᵢ & rowⱼ)` over bit-packed rows, giving O(n³/64) word
//!   operations. Used to cross-check the sparse path and as a bench
//!   comparator.

use crate::neighbors::NeighborGraph;
use crate::util::{BitSet, FxBuildHasher, FxHashMap};

/// Sparse table of non-zero link counts between point pairs.
///
/// Keys are normalised to `(min, max)`; pairs with zero links are absent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkTable {
    counts: FxHashMap<(u32, u32), u32>,
    n: usize,
}

impl LinkTable {
    /// An empty table over `n` points.
    pub fn new(n: usize) -> Self {
        LinkTable {
            counts: FxHashMap::default(),
            n,
        }
    }

    /// Number of points the table is defined over.
    pub fn num_points(&self) -> usize {
        self.n
    }

    /// The link count of the pair `{i, j}` (0 if absent or `i == j`).
    #[inline]
    pub fn count(&self, i: usize, j: usize) -> u32 {
        if i == j {
            return 0;
        }
        let key = Self::key(i as u32, j as u32);
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Adds `delta` links to the pair `{i, j}`.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of range.
    pub fn add(&mut self, i: usize, j: usize, delta: u32) {
        assert!(i != j, "links are defined between distinct points");
        assert!(i < self.n && j < self.n, "point id out of range");
        if delta == 0 {
            return;
        }
        *self.counts.entry(Self::key(i as u32, j as u32)).or_insert(0) += delta;
    }

    /// Number of point pairs with at least one link.
    pub fn num_linked_pairs(&self) -> usize {
        self.counts.len()
    }

    /// Rough heap footprint of the table in bytes, for the governed
    /// drivers' charged-memory meter: hashmap capacity × (key + value +
    /// control byte). An estimate, not an allocator measurement.
    pub fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<((u32, u32), u32)>() + 1;
        self.counts.capacity() * entry + std::mem::size_of::<Self>()
    }

    /// Total number of links over all pairs.
    pub fn total_links(&self) -> u64 {
        // tidy-allow(nondeterministic-iter): summation over values is commutative; order cannot affect the total
        self.counts.values().map(|&c| u64::from(c)).sum()
    }

    /// Iterates over `((i, j), count)` with `i < j`, arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        // tidy-allow(nondeterministic-iter): documented arbitrary-order accessor; LinkMatrix::from_table sorts the pairs before the merge loop sees them
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Converts the pair table into per-point adjacency:
    /// `result[i]` lists `(j, links(i, j))` for all j with non-zero links,
    /// sorted by `j`. This is the form the clustering loop's initial local
    /// heaps are built from.
    pub fn per_point(&self) -> Vec<Vec<(u32, u32)>> {
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.n];
        for (&(i, j), &c) in &self.counts {
            adj[i as usize].push((j, c));
            adj[j as usize].push((i, c));
        }
        for l in &mut adj {
            l.sort_unstable_by_key(|&(j, _)| j);
        }
        adj
    }

    #[inline]
    fn key(i: u32, j: u32) -> (u32, u32) {
        if i < j {
            (i, j)
        } else {
            (j, i)
        }
    }
}

/// Fig. 4: computes all pairwise link counts from the neighbor graph by
/// crediting, for every point, each pair of its neighbors with one link.
///
/// This is the reference implementation: [`crate::links_matrix::LinkMatrix`]
/// is the CSR engine used on the clustering hot path, and the test suites
/// cross-check it against this table.
pub fn compute_links_sparse(graph: &NeighborGraph) -> LinkTable {
    compute_links_sparse_seeded(graph, FxBuildHasher::default())
}

/// As [`compute_links_sparse`], with the table's hash maps built from
/// `hasher`. The link *counts* are identical for every seed — only the
/// map's internal bucket order (and so [`LinkTable::iter`] order) moves.
/// The hasher-independence property test drives clustering through both
/// a seeded and the default table and asserts bit-identical results.
pub fn compute_links_sparse_seeded(graph: &NeighborGraph, hasher: FxBuildHasher) -> LinkTable {
    let n = graph.len();
    // Pre-size the map from the Fig.-4 work bound: point i contributes
    // m_i·(m_i−1)/2 increments, so Σᵢ mᵢ²/2 bounds the number of distinct
    // linked pairs. It can overshoot (pairs repeat across points), so cap
    // by the n²/4 pair-count bound and an absolute allocation ceiling;
    // this keeps the hot loop free of rehashing without overcommitting on
    // dense graphs.
    let sum_sq: f64 = (0..n)
        .map(|i| {
            let m = graph.degree(i) as f64;
            m * m
        })
        .sum();
    let hint = (sum_sq / 2.0).min(n as f64 * n as f64 / 4.0).min(1e7) as usize;
    let mut table = LinkTable {
        counts: FxHashMap::with_capacity_and_hasher(hint.max(16), hasher),
        n,
    };
    for i in 0..n {
        let nbrs = graph.neighbors(i);
        for (a, &j) in nbrs.iter().enumerate() {
            for &l in &nbrs[a + 1..] {
                // Neighbor lists are ascending, so (j, l) is already the
                // normalised (min, max) key.
                *table.counts.entry((j, l)).or_insert(0) += 1;
            }
        }
    }
    table
}

/// Chooses between [`compute_links_sparse`] and [`compute_links_dense`]
/// by estimated cost.
///
/// The Fig.-4 algorithm costs ~`Σᵢ mᵢ²` hash-table increments; the bitset
/// path costs ~`n²/2 · ⌈n/64⌉` word operations plus O(n²/8) bytes of row
/// storage. Hash increments are roughly an order of magnitude more
/// expensive than word ANDs, so dense wins whenever the neighbor graph is
/// dense (low θ, or strongly clustered data like the mushroom set where
/// whole species are mutual neighbors). The crossover constant (8) was
/// measured with `bench/benches/links.rs`; the dense path is refused
/// above 64 MiB of row storage regardless.
pub fn compute_links_auto(graph: &NeighborGraph) -> LinkTable {
    let n = graph.len() as f64;
    let sparse_cost: f64 = (0..graph.len())
        .map(|i| {
            let m = graph.degree(i) as f64;
            m * m
        })
        .sum::<f64>()
        * 8.0;
    let dense_cost = n * n / 2.0 * (n / 64.0).max(1.0);
    let dense_bytes = n * n / 8.0;
    if dense_cost < sparse_cost && dense_bytes < 64.0 * 1024.0 * 1024.0 {
        compute_links_dense(graph)
    } else {
        compute_links_sparse(graph)
    }
}

/// §4.4: computes link counts as the square of the boolean adjacency
/// matrix, with rows packed into `u64` bitsets.
///
/// Produces a table identical to [`compute_links_sparse`]; intended for
/// cross-checking and for dense neighbor graphs (low θ) where the Fig.-4
/// algorithm degrades to O(n³) hash updates while this path does O(n³/64)
/// word ANDs.
pub fn compute_links_dense(graph: &NeighborGraph) -> LinkTable {
    let n = graph.len();
    let mut rows: Vec<BitSet> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = BitSet::new(n);
        for &j in graph.neighbors(i) {
            row.set(j as usize);
        }
        rows.push(row);
    }
    let mut table = LinkTable::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let c = rows[i].intersection_count(&rows[j]);
            if c > 0 {
                table.counts.insert((i as u32, j as u32), c as u32);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    use crate::testdata::figure1_transactions;

    fn find(ts: &[Transaction], items: [u32; 3]) -> usize {
        let t = Transaction::from(items);
        ts.iter().position(|x| *x == t).expect("transaction present")
    }

    #[test]
    fn paper_example_links_figure1() {
        // §3.2: with θ = 0.5, {1,2,6} has 5 links with {1,2,7} and 3 links
        // with {1,2,3}; {1,6,7} has 2 links with {1,2,6} and 0 links with
        // transactions of the big cluster not containing 1, 2, 6 or 7.
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5);
        let links = compute_links_sparse(&g);
        let t126 = find(&ts, [1, 2, 6]);
        let t127 = find(&ts, [1, 2, 7]);
        let t123 = find(&ts, [1, 2, 3]);
        let t167 = find(&ts, [1, 6, 7]);
        let t345 = find(&ts, [3, 4, 5]);
        assert_eq!(links.count(t126, t127), 5);
        assert_eq!(links.count(t126, t123), 3);
        assert_eq!(links.count(t167, t126), 2);
        assert_eq!(links.count(t167, t345), 0);
    }

    #[test]
    fn paper_example_1_2_pair_counts() {
        // §1.2: pairs containing {1,2} in the same cluster have 5 common
        // neighbors; across clusters only 3.
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5);
        let links = compute_links_sparse(&g);
        let t123 = find(&ts, [1, 2, 3]);
        let t124 = find(&ts, [1, 2, 4]);
        let t126 = find(&ts, [1, 2, 6]);
        assert_eq!(links.count(t123, t124), 5);
        assert_eq!(links.count(t123, t126), 3);
    }

    #[test]
    fn auto_matches_both_paths() {
        // Dense regime (low θ) and sparse regime (high θ) must both agree
        // with the explicit algorithms.
        for theta in [0.2, 0.9] {
            let m = SimilarityMatrix::from_fn(120, |i, j| {
                ((i * 31 + j * 17) % 100) as f64 / 100.0
            });
            let g = NeighborGraph::build(&m, theta);
            let auto = compute_links_auto(&g);
            assert_eq!(auto, compute_links_sparse(&g), "theta {theta}");
            assert_eq!(auto, compute_links_dense(&g), "theta {theta}");
        }
    }

    #[test]
    fn sparse_equals_dense() {
        let m = SimilarityMatrix::from_fn(80, |i, j| {
            let h = (i * 2654435761 + j * 97) % 100;
            h as f64 / 100.0
        });
        let g = NeighborGraph::build(&m, 0.6);
        assert_eq!(compute_links_sparse(&g), compute_links_dense(&g));
    }

    #[test]
    fn links_match_adjacency_matrix_square() {
        // Cross-check against an O(n³) textbook matrix multiplication.
        let m = SimilarityMatrix::from_fn(40, |i, j| ((i * 31 + j * 17) % 10) as f64 / 10.0);
        let g = NeighborGraph::build(&m, 0.5);
        let n = g.len();
        let mut a = vec![vec![0u32; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for &j in g.neighbors(i) {
                row[j as usize] = 1;
            }
        }
        let links = compute_links_sparse(&g);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let aa: u32 = (0..n).map(|l| a[i][l] * a[l][j]).sum();
                assert_eq!(links.count(i, j), aa, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn per_point_adjacency_is_consistent() {
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5);
        let links = compute_links_sparse(&g);
        let adj = links.per_point();
        for (i, list) in adj.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
            for &(j, c) in list {
                assert_eq!(links.count(i, j as usize), c);
                assert!(c > 0);
            }
        }
        // Every table entry appears exactly twice across per-point lists.
        let total: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(total, 2 * links.num_linked_pairs());
    }

    #[test]
    fn isolated_point_has_no_links() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([9]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.4);
        let links = compute_links_sparse(&g);
        for i in 0..3 {
            assert_eq!(links.count(3, i), 0);
        }
    }

    #[test]
    fn count_diagonal_and_missing_are_zero() {
        let t = LinkTable::new(5);
        assert_eq!(t.count(2, 2), 0);
        assert_eq!(t.count(0, 1), 0);
        assert_eq!(t.total_links(), 0);
    }

    #[test]
    fn add_accumulates_symmetrically() {
        let mut t = LinkTable::new(5);
        t.add(3, 1, 2);
        t.add(1, 3, 1);
        assert_eq!(t.count(1, 3), 3);
        assert_eq!(t.count(3, 1), 3);
        assert_eq!(t.num_linked_pairs(), 1);
        assert_eq!(t.total_links(), 3);
    }

    #[test]
    #[should_panic(expected = "distinct points")]
    fn add_diagonal_panics() {
        let mut t = LinkTable::new(3);
        t.add(1, 1, 1);
    }
}
