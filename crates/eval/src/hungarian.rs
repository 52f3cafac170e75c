//! The Hungarian (Kuhn–Munkres) algorithm for optimal assignment.
//!
//! Used to match predicted clusters to ground-truth clusters so that the
//! §5.4 misclassification counts (Table 6) are computed against the *best
//! possible* cluster correspondence rather than a greedy one. The
//! implementation is the standard O(n³) potentials-based shortest
//! augmenting path formulation, for square or rectangular cost matrices
//! (padded internally).

/// Solves the assignment problem: given an `n × m` cost matrix, selects
/// at most `min(n, m)` entries, one per row and column, minimising the
/// total cost. Returns `assignment[row] = Some(col)` for assigned rows.
///
/// # Panics
/// Panics if rows have inconsistent lengths or any cost is NaN.
pub fn minimum_cost_assignment(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    let m = cost[0].len();
    assert!(
        cost.iter().all(|r| r.len() == m),
        "cost matrix rows must have equal length"
    );
    if m == 0 {
        return vec![None; n];
    }
    assert!(
        cost.iter().all(|r| r.iter().all(|c| !c.is_nan())),
        "NaN cost"
    );

    // Pad to a square matrix with zero-cost dummy entries.
    let size = n.max(m);
    let pad_cost = |i: usize, j: usize| -> f64 {
        if i < n && j < m {
            cost[i][j]
        } else {
            0.0
        }
    };

    // Potentials-based Hungarian algorithm (1-indexed internals, the
    // classic formulation from competitive programming / Burkard et al.).
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; size + 1];
    let mut v = vec![0.0f64; size + 1];
    // p[j] = row assigned to column j (0 = none).
    let mut p = vec![0usize; size + 1];
    let mut way = vec![0usize; size + 1];
    for i in 1..=size {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; size + 1];
        let mut used = vec![false; size + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=size {
                if used[j] {
                    continue;
                }
                let cur = pad_cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=size {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![None; n];
    for (j, &i) in p.iter().enumerate().skip(1).take(m) {
        if i >= 1 && i <= n {
            assignment[i - 1] = Some(j - 1);
        }
    }
    assignment
}

/// Maximises total *value* instead of minimising cost (negates the
/// matrix). Returns `assignment[row] = Some(col)`.
pub(crate) fn maximum_value_assignment(value: &[Vec<f64>]) -> Vec<Option<usize>> {
    let neg: Vec<Vec<f64>> = value
        .iter()
        .map(|r| r.iter().map(|&x| -x).collect())
        .collect();
    minimum_cost_assignment(&neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(cost: &[Vec<f64>], assignment: &[Option<usize>]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|j| cost[i][j]))
            .sum()
    }

    fn brute_force_min(cost: &[Vec<f64>]) -> f64 {
        // Exhaustive over row→column injections (small matrices only).
        let n = cost.len();
        let m = cost[0].len();
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>, n: usize, m: usize) -> f64 {
            if row == n {
                return 0.0;
            }
            if n > m && row >= m {
                // more rows than columns: remaining rows unassigned
            }
            let mut best = f64::INFINITY;
            // Option: leave this row unassigned only if rows > cols overall;
            // handled implicitly by padding in the real algorithm. For the
            // brute force we allow skipping when necessary.
            let assigned_count = used.iter().filter(|&&u| u).count();
            if n - row > m - assigned_count {
                best = rec(cost, row + 1, used, n, m);
            }
            for j in 0..m {
                if !used[j] {
                    used[j] = true;
                    let v = cost[row][j] + rec(cost, row + 1, used, n, m);
                    used[j] = false;
                    best = best.min(v);
                }
            }
            best
        }
        rec(cost, 0, &mut vec![false; m], n, m)
    }

    #[test]
    fn square_known_answer() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = minimum_cost_assignment(&cost);
        assert_eq!(total(&cost, &a), 5.0); // 1 + 2 + 2
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        let mut state = 42u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 100) as f64
        };
        for trial in 0..30 {
            let n = 1 + (trial % 5);
            let m = 1 + ((trial * 7) % 5);
            let cost: Vec<Vec<f64>> =
                (0..n).map(|_| (0..m).map(|_| rand()).collect()).collect();
            let a = minimum_cost_assignment(&cost);
            // All assigned columns distinct.
            let mut cols: Vec<usize> = a.iter().flatten().copied().collect();
            assert_eq!(cols.len(), n.min(m));
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), n.min(m));
            let got = total(&cost, &a);
            let want = brute_force_min(&cost);
            assert!(
                (got - want).abs() < 1e-9,
                "trial {trial}: got {got}, want {want}, cost {cost:?}"
            );
        }
    }

    #[test]
    fn rectangular_wide() {
        let cost = vec![vec![9.0, 1.0, 8.0, 7.0]];
        let a = minimum_cost_assignment(&cost);
        assert_eq!(a, vec![Some(1)]);
    }

    #[test]
    fn rectangular_tall() {
        let cost = vec![vec![5.0], vec![1.0], vec![3.0]];
        let a = minimum_cost_assignment(&cost);
        // Only one column: the cheapest row gets it.
        assert_eq!(a.iter().flatten().count(), 1);
        assert_eq!(a[1], Some(0));
    }

    #[test]
    fn maximisation_flips() {
        let value = vec![vec![1.0, 9.0], vec![8.0, 2.0]];
        let a = maximum_value_assignment(&value);
        assert_eq!(a, vec![Some(1), Some(0)]);
    }

    #[test]
    fn empty_matrix() {
        assert!(minimum_cost_assignment(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_cost_panics() {
        let _ = minimum_cost_assignment(&[vec![f64::NAN]]);
    }
}
