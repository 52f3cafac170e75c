//! Boolean 0/1 encoding of categorical data (§5).
//!
//! The paper's traditional comparator "handle\[s\] categorical attributes by
//! converting them to boolean attributes with 0/1 values. For every
//! categorical attribute, we define a new attribute for every value in its
//! domain." Transactions are likewise 0/1 vectors over the item universe
//! (§1.1, Example 1.1). These encoders produce the dense `f64` vectors the
//! centroid-based algorithms operate on.
//!
//! Both encoders set one coordinate per item of [`Transaction::items`];
//! records go through the schema's record → transaction mapping first.

use rock_core::points::{CategoricalRecord, CategoricalSchema, Transaction};

/// Encodes transactions as 0/1 vectors over `num_items` dimensions.
///
/// # Panics
/// Panics if a transaction contains an item id ≥ `num_items`.
pub fn transactions_to_vectors(transactions: &[Transaction], num_items: usize) -> Vec<Vec<f64>> {
    transactions
        .iter()
        .map(|t| {
            let mut v = vec![0.0; num_items];
            for &item in t.items() {
                assert!(
                    (item as usize) < num_items,
                    "item id {item} out of range {num_items}"
                );
                v[item as usize] = 1.0;
            }
            v
        })
        .collect()
}

/// Encodes categorical records as 0/1 vectors with one dimension per
/// `(attribute, value)` pair of the schema.
///
/// Missing values leave the attribute's whole block at 0 — the natural
/// extension of the paper's encoding (and one of the reasons the
/// traditional algorithm struggles with missing-value data, §5.2).
/// Records are routed through the §3.1.2 record → transaction mapping,
/// so the encoding is definitionally consistent with the transaction
/// encoder above.
///
/// # Panics
/// Panics if a record's arity differs from the schema.
pub fn records_to_vectors(records: &[CategoricalRecord], schema: &CategoricalSchema) -> Vec<Vec<f64>> {
    let ts: Vec<Transaction> = records.iter().map(|r| schema.to_transaction(r)).collect();
    transactions_to_vectors(&ts, schema.num_items())
}

/// Squared Euclidean distance between dense vectors.
///
/// # Panics
/// Panics if dimensions differ.
#[inline]
pub(crate) fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_1_encoding() {
        // §1.1 Example 1.1's four transactions over items 1..6 become the
        // exact 0/1 points the paper lists (we use 0-based item ids 0..6).
        let ts = vec![
            Transaction::from([0, 1, 2, 4]),
            Transaction::from([1, 2, 3, 4]),
            Transaction::from([0, 3]),
            Transaction::from([5]),
        ];
        let vs = transactions_to_vectors(&ts, 6);
        assert_eq!(vs[0], vec![1.0, 1.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(vs[1], vec![0.0, 1.0, 1.0, 1.0, 1.0, 0.0]);
        assert_eq!(vs[2], vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        assert_eq!(vs[3], vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        // Distance between the first two points is √2, the smallest (§1.1).
        let d01 = sq_euclidean(&vs[0], &vs[1]).sqrt();
        assert!((d01 - 2f64.sqrt()).abs() < 1e-12);
        let d23 = sq_euclidean(&vs[2], &vs[3]).sqrt();
        assert!((d23 - 3f64.sqrt()).abs() < 1e-12);
        assert!(d01 < d23);
    }

    #[test]
    fn record_encoding_blocks() {
        let schema = CategoricalSchema::from_attributes(&[
            ("color", vec!["r", "g", "b"]),
            ("size", vec!["s", "l"]),
        ]);
        let recs = vec![
            CategoricalRecord::complete(vec![1, 0]),
            CategoricalRecord::new(vec![None, Some(1)]),
        ];
        let vs = records_to_vectors(&recs, &schema);
        assert_eq!(vs[0], vec![0.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(vs[1], vec![0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn empty_transaction_is_the_zero_vector() {
        let ts = vec![Transaction::from([0, 2]), Transaction::new(vec![])];
        assert_eq!(
            transactions_to_vectors(&ts, 4),
            vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0; 4]]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn item_out_of_range_panics() {
        let ts = vec![Transaction::from([9])];
        let _ = transactions_to_vectors(&ts, 5);
    }
}
