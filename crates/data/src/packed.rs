//! Bit-packed CSR transaction storage — the cache-friendly point
//! substrate for the parallel neighbor kernel.
//!
//! [`rock_core::neighbors::NeighborGraph::build`] evaluates O(n²)
//! Jaccard coefficients. Over [`Transaction`] slices each evaluation is a
//! sorted-merge intersection: data-dependent branches and two pointer
//! chases per step. [`PackedBaskets`] instead stores every transaction as
//! a fixed-width bitmap row over the item universe, so an intersection is
//! `popcount(rowᵢ & rowⱼ)` over `⌈U/64⌉` words — branch-free, SIMD-friendly
//! and sequentially laid out (row-major in one contiguous `Vec<u64>`).
//! For the paper's §5.3 market-basket universe (~a few hundred items)
//! that is a handful of words per pair.
//!
//! When the universe is too wide for bitmap rows to pay off
//! ([`PackedBaskets::MAX_BITMAP_ITEMS`]), the type transparently falls
//! back to a CSR sorted-merge over an items array — still one contiguous
//! allocation instead of one `Box<[u32]>` per transaction.
//!
//! `sim(i, j)` computes the same Jaccard value as
//! [`Transaction::jaccard`] — the intersection and union sizes are
//! integers either way, so the resulting `f64` is bit-identical and a
//! neighbor graph built over [`PackedBaskets`] equals one built over
//! `PointsWith<Transaction, Jaccard>`.

use rock_core::points::{jaccard_from_counts, Transaction};
use rock_core::similarity::PairwiseSimilarity;

/// Transactions packed for the O(n²) neighbor scan: bitmap rows when the
/// item universe is narrow, contiguous CSR item lists otherwise.
#[derive(Clone, Debug)]
pub struct PackedBaskets {
    /// CSR offsets into `items`; also the per-row set sizes.
    offsets: Vec<usize>,
    /// Concatenated sorted item ids of every transaction.
    items: Vec<u32>,
    /// Row-major bitmap rows (`rows × words_per_row` words); empty when
    /// the universe exceeds [`Self::MAX_BITMAP_ITEMS`].
    bits: Vec<u64>,
    words_per_row: usize,
    num_items: usize,
}

impl PackedBaskets {
    /// Widest item universe (in distinct item ids) for which bitmap rows
    /// are materialised. Above this, a bitmap row costs more to scan than
    /// a sorted merge over typical basket sizes (≲ tens of items), and
    /// n·⌈U/64⌉ words of storage stop being "cache-friendly".
    pub const MAX_BITMAP_ITEMS: usize = 8192;

    /// Packs `transactions`. Item ids are used as bit positions directly,
    /// so they should be catalog-compacted (as all rock-data generators
    /// and parsers produce them).
    pub fn new(transactions: &[Transaction]) -> Self {
        let num_items = transactions
            .iter()
            .flat_map(|t| t.items().last().copied())
            .max()
            .map_or(0, |m| m as usize + 1);
        let total: usize = transactions.iter().map(Transaction::len).sum();
        let mut offsets = Vec::with_capacity(transactions.len() + 1);
        let mut items = Vec::with_capacity(total);
        offsets.push(0);
        for t in transactions {
            items.extend_from_slice(t.items());
            offsets.push(items.len());
        }
        let (bits, words_per_row) = if num_items <= Self::MAX_BITMAP_ITEMS {
            let words_per_row = num_items.div_ceil(64);
            let mut bits = vec![0u64; transactions.len() * words_per_row];
            for (r, t) in transactions.iter().enumerate() {
                let row = &mut bits[r * words_per_row..(r + 1) * words_per_row];
                for &item in t.items() {
                    row[item as usize / 64] |= 1u64 << (item % 64);
                }
            }
            (bits, words_per_row)
        } else {
            (Vec::new(), 0)
        };
        PackedBaskets {
            offsets,
            items,
            bits,
            words_per_row,
            num_items,
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the item universe (max item id + 1).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Whether the popcount kernel is active (vs the CSR merge fallback).
    pub fn uses_bitmap(&self) -> bool {
        !self.bits.is_empty() || self.is_empty()
    }

    /// The sorted item ids of transaction `i`.
    pub fn items_of(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.items.len() * 4
            + self.bits.len() * 8
    }

    /// Expands every row to the §5 boolean 0/1 vector over `num_items`
    /// dimensions — the dense encoding the centroid-family baselines
    /// operate on. Works in both bitmap and CSR modes.
    ///
    /// # Panics
    /// Panics if a row contains an item id ≥ `num_items`.
    pub fn to_dense(&self, num_items: usize) -> Vec<Vec<f64>> {
        (0..self.len())
            .map(|i| {
                let mut v = vec![0.0; num_items];
                for &item in self.items_of(i) {
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

    /// `|Tᵢ ∩ Tⱼ|` via popcount (bitmap) or sorted merge (fallback).
    ///
    /// The bitmap path unrolls to 4-word chunks with four independent
    /// `u64::count_ones` accumulators: integer addition is associative,
    /// so the result is the exact count regardless of grouping, while
    /// the independent chains let the popcounts pipeline instead of
    /// serialising on one running sum.
    #[inline]
    pub fn intersection_size(&self, i: usize, j: usize) -> usize {
        if !self.bits.is_empty() {
            let w = self.words_per_row;
            let a = &self.bits[i * w..(i + 1) * w];
            let b = &self.bits[j * w..(j + 1) * w];
            let mut chunks_a = a.chunks_exact(4);
            let mut chunks_b = b.chunks_exact(4);
            let (mut c0, mut c1, mut c2, mut c3) = (0u32, 0u32, 0u32, 0u32);
            // tidy-allow(counter-coverage): per-pair metering would put an atomic add in the innermost kernel — callers (links/neighbors drivers) count pairs and bytes in aggregate per invocation
            // tidy:kernel-hot-loop — popcount intersection
            for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
                c0 += (ca[0] & cb[0]).count_ones();
                c1 += (ca[1] & cb[1]).count_ones();
                c2 += (ca[2] & cb[2]).count_ones();
                c3 += (ca[3] & cb[3]).count_ones();
            }
            let mut rest = 0u32;
            for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
                rest += (x & y).count_ones();
            }
            // tidy:end-kernel-hot-loop
            (c0 + c1 + c2 + c3 + rest) as usize
        } else {
            let (mut a, mut b) = (self.items_of(i), self.items_of(j));
            let mut count = 0;
            while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
                match x.cmp(&y) {
                    std::cmp::Ordering::Less => a = &a[1..],
                    std::cmp::Ordering::Greater => b = &b[1..],
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        a = &a[1..];
                        b = &b[1..];
                    }
                }
            }
            count
        }
    }
}

impl PairwiseSimilarity for PackedBaskets {
    fn len(&self) -> usize {
        self.len()
    }

    /// Jaccard coefficient, matching [`Transaction::jaccard`] bit for bit
    /// (both call [`jaccard_from_counts`] on the same integer sizes).
    fn sim(&self, i: usize, j: usize) -> f64 {
        let inter = self.intersection_size(i, j);
        let union = self.items_of(i).len() + self.items_of(j).len() - inter;
        jaccard_from_counts(inter, union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::neighbors::NeighborGraph;
    use rock_core::similarity::{Jaccard, PointsWith};

    fn sample_transactions() -> Vec<Transaction> {
        vec![
            Transaction::from([0, 1, 2]),
            Transaction::from([0, 1, 3]),
            Transaction::from([2, 3, 4, 70]),
            Transaction::new(vec![]),
            Transaction::from([64, 65, 127, 128]),
            Transaction::from([0, 1, 2]),
        ]
    }

    #[test]
    fn jaccard_matches_transactions_bitwise() {
        let ts = sample_transactions();
        let packed = PackedBaskets::new(&ts);
        assert!(packed.uses_bitmap());
        let reference = PointsWith::new(&ts, Jaccard);
        for i in 0..ts.len() {
            for j in 0..ts.len() {
                // Bit-identical f64s, so exact compare is intended.
                assert_eq!(packed.sim(i, j), reference.sim(i, j), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn csr_fallback_matches_bitmap_path() {
        // Same baskets, but one huge item id forces the merge fallback.
        let mut ts = sample_transactions();
        ts.push(Transaction::from([0, 1_000_000]));
        let packed = PackedBaskets::new(&ts);
        assert!(!packed.uses_bitmap());
        let reference = PointsWith::new(&ts, Jaccard);
        for i in 0..ts.len() {
            for j in 0..ts.len() {
                assert_eq!(packed.sim(i, j), reference.sim(i, j), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn neighbor_graph_equals_transaction_graph() {
        let ts: Vec<Transaction> = (0..120)
            .map(|i: u32| {
                let base = (i % 10) * 7;
                Transaction::from([base, base + 1, base + 2, i % 5 + 90])
            })
            .collect();
        let packed = PackedBaskets::new(&ts);
        let from_packed = NeighborGraph::build(&packed, 0.3);
        let from_transactions = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.3);
        assert_eq!(from_packed, from_transactions);
        // And the parallel builder over packed rows agrees too.
        assert_eq!(
            NeighborGraph::build_parallel(&packed, 0.3, 4),
            from_transactions
        );
    }

    #[test]
    fn unrolled_popcount_covers_chunks_and_remainder() {
        // 300 items → words_per_row = 5: one full 4-word chunk plus a
        // remainder word, exercising both halves of the unrolled loop.
        let ts: Vec<Transaction> = (0..40)
            .map(|i: u32| {
                let items: Vec<u32> = (0..300u32)
                    .filter(|&x| (x.wrapping_mul(2654435761) ^ i) % 7 < 2)
                    .collect();
                Transaction::new(items)
            })
            .collect();
        let packed = PackedBaskets::new(&ts);
        assert!(packed.uses_bitmap());
        assert!(packed.num_items() > 4 * 64, "need >4 words per row");
        let reference = PointsWith::new(&ts, Jaccard);
        for i in 0..ts.len() {
            for j in 0..ts.len() {
                assert_eq!(packed.sim(i, j), reference.sim(i, j), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn accessors() {
        let ts = sample_transactions();
        let packed = PackedBaskets::new(&ts);
        assert_eq!(packed.len(), ts.len());
        assert!(!packed.is_empty());
        assert_eq!(packed.num_items(), 129);
        assert_eq!(packed.items_of(2), &[2, 3, 4, 70]);
        assert_eq!(packed.items_of(3), &[] as &[u32]);
        assert!(packed.memory_bytes() > 0);

        let empty = PackedBaskets::new(&[]);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.num_items(), 0);
    }

    #[test]
    fn to_dense_expands_rows() {
        let ts = vec![Transaction::from([0, 2]), Transaction::new(vec![])];
        let packed = PackedBaskets::new(&ts);
        assert_eq!(
            packed.to_dense(4),
            vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0; 4]]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn to_dense_rejects_narrow_universe() {
        let packed = PackedBaskets::new(&[Transaction::from([9])]);
        let _ = packed.to_dense(5);
    }

    #[test]
    fn empty_transactions_follow_the_jaccard_empty_convention() {
        let ts = vec![Transaction::new(vec![]), Transaction::new(vec![])];
        let packed = PackedBaskets::new(&ts);
        // Matches Transaction::jaccard: empty vs empty is defined as 0.
        assert_eq!(packed.sim(0, 1), 0.0);
    }
}
