//! k-modes (Huang 1998): the partitional analogue of k-means for
//! categorical data.
//!
//! Included as an extra baseline beyond the paper's comparators: it
//! replaces centroids by per-attribute *modes* and Euclidean distance by
//! simple matching distance (number of attribute mismatches), so it at
//! least speaks categorical natively — but, being partitional and
//! mode-based, it still lacks ROCK's neighborhood information.
//!
//! Missing values never match and never vote for a mode.

use rand::Rng;
use rock_core::cluster::Clustering;
use rock_core::points::CategoricalRecord;
use std::collections::BTreeMap;

/// Configuration for a k-modes run.
#[derive(Clone, Copy, Debug)]
pub struct KModesConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum reassignment sweeps.
    pub max_iters: usize,
}

impl KModesConfig {
    /// `k` clusters, up to 100 sweeps.
    pub fn new(k: usize) -> Self {
        KModesConfig { k, max_iters: 100 }
    }
}

/// Result of a k-modes run.
#[derive(Clone, Debug)]
pub struct KModesResult {
    /// The partition.
    pub clustering: Clustering,
    /// Final cluster modes (aligned with `clustering.clusters`); an
    /// attribute's mode is `None` when no member observed it.
    pub modes: Vec<CategoricalRecord>,
    /// Total simple-matching cost (mismatched attributes summed over all
    /// points).
    pub cost: u64,
    /// Sweeps performed.
    pub iterations: usize,
}

/// Simple-matching dissimilarity: the number of attributes where the
/// record and the mode differ (missing on either side counts as a
/// mismatch).
fn mismatch(record: &CategoricalRecord, mode: &CategoricalRecord) -> u64 {
    record
        .values()
        .iter()
        .zip(mode.values())
        .filter(|(a, b)| match (a, b) {
            (Some(x), Some(y)) => x != y,
            _ => true,
        })
        .count() as u64
}

/// Computes the per-attribute mode of a set of records.
fn mode_of(records: &[CategoricalRecord], members: &[u32], arity: usize) -> CategoricalRecord {
    let mut values = Vec::with_capacity(arity);
    for a in 0..arity {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for &m in members {
            if let Some(v) = records[m as usize].value(a) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        // Deterministic mode: highest count, smallest value on ties.
        let mut tallies: Vec<(u32, usize)> = counts.into_iter().collect();
        tallies.sort_unstable_by(|(va, ca), (vb, cb)| cb.cmp(ca).then(va.cmp(vb)));
        values.push(tallies.first().map(|&(v, _)| v));
    }
    CategoricalRecord::new(values)
}

/// Runs k-modes with random distinct seeding and Lloyd-style sweeps.
///
/// # Panics
/// Panics if `records` is empty, arities differ, `k == 0`, or
/// `k > records.len()`.
pub fn kmodes<R: Rng + ?Sized>(
    records: &[CategoricalRecord],
    config: KModesConfig,
    rng: &mut R,
) -> KModesResult {
    let n = records.len();
    assert!(n > 0, "cannot cluster zero records");
    let arity = records[0].arity();
    assert!(
        records.iter().all(|r| r.arity() == arity),
        "records must share a schema"
    );
    assert!(
        config.k >= 1 && config.k <= n,
        "k must be in 1..=n, got {}",
        config.k
    );

    // Seed with k random records, preferring *distinct* records (Huang's
    // recommendation) — identical modes make every tie fall to the first
    // cluster and starve the rest. Falls back to duplicates when the data
    // has fewer than k distinct records.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let mut modes: Vec<CategoricalRecord> = Vec::with_capacity(config.k);
    for &i in &order {
        if modes.len() == config.k {
            break;
        }
        if !modes.contains(&records[i]) {
            modes.push(records[i].clone());
        }
    }
    for &i in &order {
        if modes.len() == config.k {
            break;
        }
        modes.push(records[i].clone());
    }

    let mut assign: Vec<usize> = vec![0; n];
    let mut iterations = 0;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let mut changes = 0usize;
        for (i, r) in records.iter().enumerate() {
            let mut best = (u64::MAX, 0usize);
            for (c, m) in modes.iter().enumerate() {
                let d = mismatch(r, m);
                if d < best.0 {
                    best = (d, c);
                }
            }
            if assign[i] != best.1 {
                assign[i] = best.1;
                changes += 1;
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); config.k];
        for (i, &c) in assign.iter().enumerate() {
            groups[c].push(i as u32);
        }
        for (c, members) in groups.iter().enumerate() {
            if !members.is_empty() {
                modes[c] = mode_of(records, members, arity);
            }
        }
        if changes == 0 {
            break;
        }
    }

    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); config.k];
    for (i, &c) in assign.iter().enumerate() {
        clusters[c].push(i as u32);
    }
    let cost: u64 = records
        .iter()
        .zip(&assign)
        .map(|(r, &c)| mismatch(r, &modes[c]))
        .sum();
    let clustering = Clustering::new(clusters, Vec::new());
    let modes_ordered = clustering
        .clusters
        .iter()
        .map(|members| mode_of(records, members, arity))
        .collect();
    KModesResult {
        clustering,
        modes: modes_ordered,
        cost,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rec(vals: &[u32]) -> CategoricalRecord {
        CategoricalRecord::complete(vals.to_vec())
    }

    fn two_pattern_records() -> Vec<CategoricalRecord> {
        let mut rs = Vec::new();
        for i in 0..10u32 {
            rs.push(rec(&[0, 0, 0, i % 2])); // pattern A
            rs.push(rec(&[5, 5, 5, i % 3])); // pattern B
        }
        rs
    }

    #[test]
    fn separates_patterns() {
        let rs = two_pattern_records();
        let mut rng = StdRng::seed_from_u64(11);
        let r = kmodes(&rs, KModesConfig::new(2), &mut rng);
        assert_eq!(r.clustering.sizes(), vec![10, 10]);
        for cl in &r.clustering.clusters {
            let even: std::collections::HashSet<bool> =
                cl.iter().map(|&p| p % 2 == 0).collect();
            assert_eq!(even.len(), 1, "patterns must not mix");
        }
    }

    #[test]
    fn modes_reflect_majority() {
        let rs = two_pattern_records();
        let mut rng = StdRng::seed_from_u64(11);
        let r = kmodes(&rs, KModesConfig::new(2), &mut rng);
        for m in &r.modes {
            let first = m.value(0).unwrap();
            assert!(first == 0 || first == 5);
            assert_eq!(m.value(1).unwrap(), first);
        }
    }

    #[test]
    fn mismatch_counts_missing_as_mismatch() {
        let a = CategoricalRecord::new(vec![Some(1), None, Some(2)]);
        let b = CategoricalRecord::new(vec![Some(1), Some(0), None]);
        assert_eq!(mismatch(&a, &b), 2);
        assert_eq!(mismatch(&a, &a), 1, "missing never matches, even itself");
    }

    #[test]
    fn perfect_fit_has_zero_cost_with_restarts() {
        // k-modes is a local-search method; like k-means it is restarted
        // and the lowest-cost run kept.
        let rs = vec![rec(&[1, 2]), rec(&[1, 2]), rec(&[3, 4]), rec(&[3, 4])];
        let best = (0..8)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                kmodes(&rs, KModesConfig::new(2), &mut rng).cost
            })
            .min()
            .unwrap();
        assert_eq!(best, 0);
    }

    #[test]
    #[should_panic(expected = "share a schema")]
    fn arity_mismatch_panics() {
        let rs = vec![rec(&[1]), rec(&[1, 2])];
        let mut rng = StdRng::seed_from_u64(5);
        let _ = kmodes(&rs, KModesConfig::new(1), &mut rng);
    }
}
