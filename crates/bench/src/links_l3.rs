//! Alternative link definition: paths of length 3 (§3.2).
//!
//! The paper: "Alternative definitions for links, based on paths of
//! length 3 or more, are certainly possible; however, we do not consider
//! these…" for cost reasons and because "the additional information
//! gained … may not be as valuable". This module implements the
//! length-3 variant so that claim can be tested; its unit tests hold
//! the finding EXPERIMENTS.md reports (`l3_links_degrade_figure1`):
//!
//! * `link₃(i, j)` = number of *simple* length-3 neighbor paths
//!   `i → k → l → j` (k, l distinct from each other and from i, j);
//! * [`combine_links`] forms `link₂ + w·link₃` as a [`LinkMatrix`] for
//!   the merge loop.
//!
//! Computed from the walk count `A³[i][j]` with the standard correction
//! for non-simple walks: for `i ≠ j`,
//! `paths₃ = A³ − A[i][j]·(deg(i) + deg(j) − 1)`
//! (walks revisiting `i` as the second vertex, revisiting `j` as the
//! first intermediate, with the doubly-degenerate `i→j→i→j` walk counted
//! once in each term and present `A[i][j]` times). O(n²·m) time via
//! per-vertex two-hop counting — an analysis tool, not a fit path.

use rock_core::links_matrix::LinkMatrix;
use rock_core::neighbors::NeighborGraph;
use std::collections::BTreeMap;

/// Number of simple length-3 neighbor paths for every pair, as
/// upper-triangle `(i, j, count)` triples sorted by `(i, j)`; pairs with
/// no such path are absent.
pub fn compute_links_l3(graph: &NeighborGraph) -> Vec<(u32, u32, u32)> {
    let n = graph.len();
    // For each source i: w2 = row i of A² (two-hop walk counts), then
    // w3[j] = Σ_l w2[l]·A[l][j], accumulated by scanning neighbors of l.
    let mut triples = Vec::new();
    let mut w2 = vec![0u32; n];
    let mut w3 = vec![0u64; n];
    for i in 0..n {
        w2.iter_mut().for_each(|x| *x = 0);
        w3.iter_mut().for_each(|x| *x = 0);
        for &k in graph.neighbors(i) {
            for &l in graph.neighbors(k as usize) {
                w2[l as usize] += 1;
            }
        }
        for (l, &count) in w2.iter().enumerate() {
            if count == 0 {
                continue;
            }
            for &j in graph.neighbors(l) {
                w3[j as usize] += u64::from(count);
            }
        }
        for (j, &walks) in w3.iter().enumerate().skip(i + 1) {
            let a_ij = u64::from(graph.are_neighbors(i, j));
            let degenerate = a_ij * (graph.degree(i) as u64 + graph.degree(j) as u64 - 1);
            let paths = walks.saturating_sub(degenerate);
            if paths > 0 {
                triples.push((i as u32, j as u32, u32::try_from(paths).unwrap_or(u32::MAX)));
            }
        }
    }
    triples
}

/// Combines link counts as `base + weight · extra`, rounding the
/// weighted term down — e.g. `link₂ + ½·link₃` (§3.2's hypothetical
/// richer link). `extra` holds upper-triangle `(i, j, count)` triples,
/// as [`compute_links_l3`] returns them.
///
/// # Panics
/// Panics if `weight` is negative or non-finite, or if `extra` names a
/// point outside `base` (see [`LinkMatrix::from_pairs`]).
pub fn combine_links(base: &LinkMatrix, extra: &[(u32, u32, u32)], weight: f64) -> LinkMatrix {
    assert!(
        weight.is_finite() && weight >= 0.0,
        "weight must be finite and non-negative"
    );
    let mut sum: BTreeMap<(u32, u32), u32> = base.iter_upper().collect();
    for &(i, j, c) in extra {
        let add = (f64::from(c) * weight).floor() as u32;
        if add > 0 {
            *sum.entry((i, j)).or_insert(0) += add;
        }
    }
    let triples: Vec<(u32, u32, u32)> = sum.into_iter().map(|((i, j), c)| (i, j, c)).collect();
    LinkMatrix::from_pairs(base.num_points(), &triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::algorithm::{OutlierPolicy, RockAlgorithm};
    use rock_core::goodness::{ConstantF, Goodness, GoodnessKind};
    use rock_core::governor::RunGovernor;
    use rock_core::points::Transaction;
    use rock_core::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    /// Builds a graph from an explicit edge list.
    fn graph_of(n: usize, edges: &[(usize, usize)]) -> NeighborGraph {
        let mut m = SimilarityMatrix::new(n);
        for &(a, b) in edges {
            m.set(a, b, 1.0);
        }
        NeighborGraph::build(&m, 0.9, 1)
    }

    /// `link₃` as a matrix, for pair lookups.
    fn l3_matrix(graph: &NeighborGraph) -> LinkMatrix {
        LinkMatrix::from_pairs(graph.len(), &compute_links_l3(graph))
    }

    /// Fig. 1 / Example 1.2: all 3-subsets of {1..5} (ids 0..10), then all
    /// 3-subsets of {1, 2, 6, 7} (ids 10..14).
    fn figure1_transactions() -> Vec<Transaction> {
        let mut ts = Vec::new();
        for items in [&[1u32, 2, 3, 4, 5][..], &[1, 2, 6, 7]] {
            for x in 0..items.len() {
                for y in (x + 1)..items.len() {
                    for z in (y + 1)..items.len() {
                        ts.push(Transaction::from([items[x], items[y], items[z]]));
                    }
                }
            }
        }
        ts
    }

    /// Exhaustive reference: enumerate simple paths i→k→l→j.
    fn brute_paths3(graph: &NeighborGraph, i: usize, j: usize) -> u64 {
        let mut count = 0;
        for &k in graph.neighbors(i) {
            let k = k as usize;
            if k == j {
                continue;
            }
            for &l in graph.neighbors(k) {
                let l = l as usize;
                if l == i || l == j || l == k {
                    continue;
                }
                if graph.are_neighbors(l, j) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn path_of_length_three_on_a_chain() {
        // 0-1-2-3: exactly one simple 3-path between 0 and 3.
        let g = graph_of(4, &[(0, 1), (1, 2), (2, 3)]);
        let t = l3_matrix(&g);
        assert_eq!(t.count(0, 3), 1);
        assert_eq!(t.count(0, 2), 0); // only a 2-path
        assert_eq!(t.count(0, 1), 0); // direct edge, no 3-path
    }

    #[test]
    fn triangle_plus_edge() {
        // Triangle 0-1-2 plus edge 2-3: 3-paths from 0 to 3: 0→1→2→3.
        let g = graph_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let t = l3_matrix(&g);
        assert_eq!(t.count(0, 3), 1);
        // Between adjacent triangle vertices 0 and 1: 3-paths need two
        // distinct intermediates ∉ {0,1}: 0→2→3? 3 not adjacent to 1. None.
        assert_eq!(t.count(0, 1), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..5u64 {
            let n = 14;
            let m = SimilarityMatrix::from_fn(n, |i, j| {
                let h = (i as u64 * 2654435761 + j as u64 * 97 + seed * 131) % 100;
                h as f64 / 100.0
            });
            let g = NeighborGraph::build(&m, 0.55, 1);
            let triples = compute_links_l3(&g);
            assert!(triples
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
            let t = LinkMatrix::from_pairs(n, &triples);
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(
                        u64::from(t.count(i, j)),
                        brute_paths3(&g, i, j),
                        "seed {seed}, pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn combine_links_weights() {
        let g2 = graph_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let l2 = LinkMatrix::compute_sparse(&g2, 1);
        let l3 = compute_links_l3(&g2);
        let l3m = LinkMatrix::from_pairs(4, &l3);
        let combined = combine_links(&l2, &l3, 2.0);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(
                        combined.count(i, j),
                        l2.count(i, j) + 2 * l3m.count(i, j),
                        "pair ({i},{j})"
                    );
                }
            }
        }
        // Zero weight reduces to the base links.
        assert_eq!(combine_links(&l2, &l3, 0.0), l2);
    }

    #[test]
    fn l3_links_degrade_figure1() {
        // Reproduction finding supporting §3.2's decision to stop at
        // length 2: on Fig. 1, length-3 paths flow disproportionately
        // *through* the shared {1,2,x} bridge between the two clusters,
        // so mixing them into the link counts makes the big cluster
        // swallow {1,2,6} and {1,2,7} — plain link₂ recovers the correct
        // (10, 4) split, link₂ + ½·link₃ does not. Longer paths are not
        // merely "not as valuable" (§3.2); here they are actively worse.
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let l2 = LinkMatrix::compute_sparse(&g, 1);
        let l3 = compute_links_l3(&g);
        let goodness = Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized);
        let algo = RockAlgorithm::new(goodness, 2, OutlierPolicy::default());
        let run = |links: &LinkMatrix| {
            algo.run_governed(&g, links, &RunGovernor::unlimited(), None)
                .expect("an unlimited governor never trips")
        };
        let plain = run(&l2);
        assert_eq!(plain.clustering.sizes(), vec![10, 4]);
        let mixed = run(&combine_links(&l2, &l3, 0.5));
        assert_eq!(mixed.clustering.sizes(), vec![12, 2]);
    }
}
