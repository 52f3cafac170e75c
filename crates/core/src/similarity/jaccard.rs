//! The Jaccard coefficient over transactions (§3.1.1).

use super::Similarity;
use crate::points::Transaction;

/// Jaccard similarity `|T₁ ∩ T₂| / |T₁ ∪ T₂|` between transactions.
///
/// This is the measure the paper uses for market-basket data: the more
/// items two transactions share relative to their combined size, the more
/// similar they are. It naturally penalises very small subsets — a
/// transaction containing only `milk` is not considered similar to a large
/// basket that happens to include milk.
///
/// # Examples
/// ```
/// use rock_core::points::Transaction;
/// use rock_core::similarity::{Jaccard, Similarity};
///
/// let a = Transaction::from([1, 2, 3]);
/// let b = Transaction::from([1, 2, 4]);
/// assert_eq!(Jaccard.similarity(&a, &b), 0.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Similarity<Transaction> for Jaccard {
    #[inline]
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        a.jaccard(b)
    }

    /// A transaction's items are already sorted and unique, and
    /// [`Transaction::jaccard`] is `jaccard_from_counts` over them.
    #[inline]
    fn item_set<'p>(&self, p: &'p Transaction) -> Option<&'p [u32]> {
        Some(p.items())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_and_symmetry() {
        let ts = [
            Transaction::from([1, 2, 3, 5]),
            Transaction::from([2, 3, 4, 5]),
            Transaction::from([1, 4]),
            Transaction::from([6]),
            Transaction::new(vec![]),
        ];
        for a in &ts {
            for b in &ts {
                let s = Jaccard.similarity(a, b);
                assert!((0.0..=1.0).contains(&s));
                assert_eq!(s, Jaccard.similarity(b, a));
            }
        }
    }

    #[test]
    fn distinct_similarity_levels_bounded() {
        // §3.1.1: sim(T1, T2) takes at most min(|T1|,|T2|)+1 distinct values.
        let t1 = Transaction::from([1, 2, 3]);
        let others = [
            Transaction::from([4, 5, 6]),
            Transaction::from([1, 5, 6]),
            Transaction::from([1, 2, 6]),
            Transaction::from([1, 2, 3]),
        ];
        let mut levels: Vec<f64> = others.iter().map(|o| t1.jaccard(o)).collect();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        assert!(levels.len() <= t1.len() + 1);
    }
}
