//! Cluster characterisation by frequent attribute values — the format of
//! the paper's Tables 7, 8 and 9: for each cluster, the list of
//! `(attribute, value, frequency)` triples whose in-cluster frequency
//! clears a threshold.

use rock_core::points::{CategoricalRecord, CategoricalSchema};
use std::collections::BTreeMap;

/// One frequent value of one attribute within a cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequentValue {
    /// Attribute index in the schema.
    pub attribute: usize,
    /// Value id within the attribute's domain.
    pub value: u32,
    /// Fraction of the cluster's records (with the attribute present)
    /// carrying this value.
    pub frequency: f64,
}

/// The frequent-value profile of one cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterProfile {
    /// Cluster size.
    pub size: usize,
    /// Frequent values, ordered by attribute then descending frequency.
    pub values: Vec<FrequentValue>,
}

impl ClusterProfile {
    /// Renders the profile in the paper's `(attribute,value,freq)`
    /// notation.
    pub fn render(&self, schema: &CategoricalSchema) -> String {
        let mut out = String::new();
        for fv in &self.values {
            let attr = &schema.attributes()[fv.attribute];
            let value = attr.value_name(fv.value).unwrap_or("?");
            out.push_str(&format!(
                "({},{},{:.2}) ",
                attr.name(),
                value,
                fv.frequency
            ));
        }
        out.trim_end().to_owned()
    }
}

/// Computes per-cluster frequent-value profiles.
///
/// `min_frequency` is the reporting threshold (the paper's tables list
/// values with support ≥ ~0.5 within the cluster). Missing values are
/// excluded from both numerator and denominator.
///
/// # Panics
/// Panics if a member id is out of range or record arity disagrees with
/// the schema.
pub fn cluster_profiles(
    records: &[CategoricalRecord],
    schema: &CategoricalSchema,
    clusters: &[Vec<u32>],
    min_frequency: f64,
) -> Vec<ClusterProfile> {
    clusters
        .iter()
        .map(|members| {
            let mut values = Vec::new();
            for a in 0..schema.num_attributes() {
                let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
                let mut present = 0usize;
                for &m in members {
                    let record = &records[m as usize];
                    assert_eq!(
                        record.arity(),
                        schema.num_attributes(),
                        "record arity must match schema"
                    );
                    if let Some(v) = record.value(a) {
                        *counts.entry(v).or_insert(0) += 1;
                        present += 1;
                    }
                }
                if present == 0 {
                    continue;
                }
                let mut attr_values: Vec<FrequentValue> = counts
                    .into_iter()
                    .map(|(value, c)| FrequentValue {
                        attribute: a,
                        value,
                        frequency: c as f64 / present as f64,
                    })
                    .filter(|fv| fv.frequency >= min_frequency)
                    .collect();
                attr_values.sort_by(|x, y| {
                    y.frequency
                        .total_cmp(&x.frequency)
                        .then(x.value.cmp(&y.value))
                });
                values.extend(attr_values);
            }
            ClusterProfile {
                size: members.len(),
                values,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> CategoricalSchema {
        CategoricalSchema::from_attributes(&[
            ("odor", vec!["none", "foul"]),
            ("color", vec!["brown", "white", "gray"]),
        ])
    }

    fn rec(vals: &[Option<u32>]) -> CategoricalRecord {
        CategoricalRecord::new(vals.to_vec())
    }

    #[test]
    fn frequencies_computed_over_present_values() {
        let records = vec![
            rec(&[Some(0), Some(0)]),
            rec(&[Some(0), Some(0)]),
            rec(&[Some(0), Some(1)]),
            rec(&[None, Some(1)]),
        ];
        let profiles = cluster_profiles(&records, &schema(), &[vec![0, 1, 2, 3]], 0.5);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.size, 4);
        // odor none: 3/3 present = 1.0; color brown 2/4, white 2/4.
        assert!(p
            .values
            .iter()
            .any(|fv| fv.attribute == 0 && fv.value == 0 && fv.frequency == 1.0));
        let colors: Vec<_> = p.values.iter().filter(|fv| fv.attribute == 1).collect();
        assert_eq!(colors.len(), 2);
        assert!(colors.iter().all(|fv| fv.frequency == 0.5));
    }

    #[test]
    fn threshold_filters() {
        let records = vec![
            rec(&[Some(0), Some(0)]),
            rec(&[Some(0), Some(1)]),
            rec(&[Some(0), Some(2)]),
        ];
        let profiles = cluster_profiles(&records, &schema(), &[vec![0, 1, 2]], 0.5);
        // Only odor=none (1.0) survives; each color is 1/3.
        assert_eq!(profiles[0].values.len(), 1);
        assert_eq!(profiles[0].values[0].attribute, 0);
    }

    #[test]
    fn render_matches_paper_notation() {
        let records = vec![rec(&[Some(1), Some(2)])];
        let profiles = cluster_profiles(&records, &schema(), &[vec![0]], 0.5);
        let s = profiles[0].render(&schema());
        assert_eq!(s, "(odor,foul,1.00) (color,gray,1.00)");
    }

    #[test]
    fn multiple_clusters_profiled_independently() {
        let records = vec![
            rec(&[Some(0), Some(0)]),
            rec(&[Some(1), Some(2)]),
        ];
        let profiles =
            cluster_profiles(&records, &schema(), &[vec![0], vec![1]], 0.5);
        assert_eq!(profiles[0].values[0].value, 0);
        assert_eq!(profiles[1].values[0].value, 1);
    }

    #[test]
    fn empty_cluster_has_empty_profile() {
        let records = vec![rec(&[Some(0), Some(0)])];
        let profiles = cluster_profiles(&records, &schema(), &[vec![]], 0.5);
        assert!(profiles[0].values.is_empty());
        assert_eq!(profiles[0].size, 0);
    }
}
