//! Alternative link definition: paths of length 3 (§3.2).
//!
//! The paper: "Alternative definitions for links, based on paths of
//! length 3 or more, are certainly possible; however, we do not consider
//! these…" for cost reasons and because "the additional information
//! gained … may not be as valuable". This module implements the
//! length-3 variant so that claim can be tested (see
//! `bench/benches/ablation.rs` and the unit tests below):
//!
//! * `link₃(i, j)` = number of *simple* length-3 neighbor paths
//!   `i → k → l → j` (k, l distinct from each other and from i, j);
//! * [`combine_links`] forms `link₂ + w·link₃` tables for the merge loop.
//!
//! Computed from the walk count `A³[i][j]` with the standard correction
//! for non-simple walks: for `i ≠ j`,
//! `paths₃ = A³ − A[i][j]·(deg(i) + deg(j) − 1)`
//! (walks revisiting `i` as the second vertex, revisiting `j` as the
//! first intermediate, with the doubly-degenerate `i→j→i→j` walk counted
//! once in each term and present `A[i][j]` times). O(n²·m) time via
//! per-vertex two-hop counting — intended for analysis, not production.

use crate::links::LinkTable;
use crate::neighbors::NeighborGraph;

/// Number of simple length-3 neighbor paths for every pair.
pub fn compute_links_l3(graph: &NeighborGraph) -> LinkTable {
    let n = graph.len();
    // two_hop[x] = walks of length 2 ending at each vertex, i.e. row x of
    // A². Reused across i via recomputation per source — O(n · Σ deg)
    // memory-light variant: for each i compute w2 = A² row, then
    // w3[j] = Σ_l w2[l]·A[l][j] accumulated by scanning neighbors of l.
    let mut table = LinkTable::new(n);
    let mut w2 = vec![0u32; n];
    let mut w3 = vec![0u64; n];
    let mut emitted = 0u64;
    // tidy:kernel-hot-loop — length-3 path counting over all sources
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
            let degenerate =
                a_ij * (graph.degree(i) as u64 + graph.degree(j) as u64 - 1);
            let paths = walks.saturating_sub(degenerate);
            if paths > 0 {
                table.add(i, j, u32::try_from(paths).unwrap_or(u32::MAX));
                emitted += 1;
            }
        }
    }
    // tidy:end-kernel-hot-loop
    crate::perf::count_pairs_emitted(emitted);
    crate::perf::count_scratch_reused(2 * n as u64);
    table
}

/// As [`compute_links_l3`], with source rows sharded across `threads`
/// rayon workers.
///
/// Each worker owns a contiguous range of sources `i` and produces the
/// complete set of `(i, j)` entries for its range (the sequential kernel
/// is already per-source independent), so the resulting table is
/// identical to the sequential one for every thread count.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn compute_links_l3_parallel(graph: &NeighborGraph, threads: usize) -> LinkTable {
    assert!(threads > 0, "need at least one thread");
    let n = graph.len();
    if threads == 1 || n < 64 {
        return compute_links_l3(graph);
    }
    let chunk = n.div_ceil(threads);
    let mut partials: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); threads.min(n)];
    rayon::scope(|scope| {
        for (t, out) in partials.iter_mut().enumerate() {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            scope.spawn(move |_| {
                let mut w2 = vec![0u32; n];
                let mut w3 = vec![0u64; n];
                // tidy:kernel-hot-loop — length-3 path counting, one source shard
                for i in lo..hi {
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
                        let degenerate =
                            a_ij * (graph.degree(i) as u64 + graph.degree(j) as u64 - 1);
                        let paths = walks.saturating_sub(degenerate);
                        if paths > 0 {
                            out.push((
                                i as u32,
                                j as u32,
                                u32::try_from(paths).unwrap_or(u32::MAX),
                            ));
                        }
                    }
                }
                // tidy:end-kernel-hot-loop
                crate::perf::count_pairs_emitted(out.len() as u64);
                crate::perf::count_scratch_reused(2 * n as u64);
            });
        }
    });
    let mut table = LinkTable::new(n);
    for (i, j, c) in partials.into_iter().flatten() {
        table.add(i as usize, j as usize, c);
    }
    table
}

/// Combines two link tables as `base + weight · extra`, rounding down —
/// e.g. `link₂ + ½·link₃` (§3.2's hypothetical richer link).
///
/// # Panics
/// Panics if the tables cover different point counts or `weight` is
/// negative/non-finite.
pub fn combine_links(base: &LinkTable, extra: &LinkTable, weight: f64) -> LinkTable {
    assert_eq!(
        base.num_points(),
        extra.num_points(),
        "link tables must cover the same points"
    );
    assert!(
        weight.is_finite() && weight >= 0.0,
        "weight must be finite and non-negative"
    );
    let mut out = LinkTable::new(base.num_points());
    for ((i, j), c) in base.iter() {
        out.add(i as usize, j as usize, c);
    }
    for ((i, j), c) in extra.iter() {
        let add = (f64::from(c) * weight).floor() as u32;
        if add > 0 {
            out.add(i as usize, j as usize, add);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityMatrix;

    /// Builds a graph from an explicit edge list.
    fn graph_of(n: usize, edges: &[(usize, usize)]) -> NeighborGraph {
        let mut m = SimilarityMatrix::new(n);
        for &(a, b) in edges {
            m.set(a, b, 1.0);
        }
        NeighborGraph::build(&m, 0.9)
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
        let t = compute_links_l3(&g);
        assert_eq!(t.count(0, 3), 1);
        assert_eq!(t.count(0, 2), 0); // only a 2-path
        assert_eq!(t.count(0, 1), 0); // direct edge, no 3-path
    }

    #[test]
    fn triangle_plus_edge() {
        // Triangle 0-1-2 plus edge 2-3: 3-paths from 0 to 3: 0→1→2→3.
        let g = graph_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let t = compute_links_l3(&g);
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
            let g = NeighborGraph::build(&m, 0.55);
            let t = compute_links_l3(&g);
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
    fn parallel_l3_matches_serial() {
        let m = SimilarityMatrix::from_fn(90, |i, j| {
            ((i * j).wrapping_mul(2654435761) % 100) as f64 / 100.0
        });
        let g = NeighborGraph::build(&m, 0.5);
        let serial = compute_links_l3(&g);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                compute_links_l3_parallel(&g, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn combine_links_weights() {
        let g2 = graph_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let l2 = crate::links::compute_links_sparse(&g2);
        let l3 = compute_links_l3(&g2);
        let combined = combine_links(&l2, &l3, 2.0);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(
                        combined.count(i, j),
                        l2.count(i, j) + 2 * l3.count(i, j),
                        "pair ({i},{j})"
                    );
                }
            }
        }
        // Zero weight reduces to the base table.
        let same = combine_links(&l2, &l3, 0.0);
        assert_eq!(same, l2);
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
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(
            &crate::similarity::PointsWith::new(&ts, crate::similarity::Jaccard),
            0.5,
        );
        let l2 = crate::links::compute_links_sparse(&g);
        let l3 = compute_links_l3(&g);
        let goodness = crate::goodness::Goodness::new(
            0.5,
            crate::goodness::ConstantF(1.0),
            crate::goodness::GoodnessKind::Normalized,
        );
        let algo = crate::algorithm::RockAlgorithm::new(
            goodness,
            2,
            crate::algorithm::OutlierPolicy::default(),
        );
        let run = |links: &LinkTable| {
            let links = crate::links_matrix::LinkMatrix::from_table(links);
            let governor = crate::governor::RunGovernor::unlimited();
            algo.run_governed(&g, &links, &governor, None).unwrap()
        };
        let plain = run(&l2);
        assert_eq!(plain.clustering.sizes(), vec![10, 4]);
        let combined = combine_links(&l2, &l3, 0.5);
        let mixed = run(&combined);
        assert_eq!(mixed.clustering.sizes(), vec![12, 2]);
    }
}
