//! Non-finite detection at the clustering API boundary.
//!
//! A user-supplied [`Similarity`] that returns NaN is dangerous in two
//! different ways: `NaN >= θ` is `false`, so the point pair is *silently*
//! dropped from the neighbor graph, and a NaN that leaks further (e.g.
//! through a custom goodness) trips the `assert!(!priority.is_nan())` in
//! the merge heap mid-run. [`CheckedSimilarity`] wraps any measure and
//! latches the first non-finite value it observes, so driver entry points
//! ([`crate::rock::Rock::cluster`] and friends) can surface a typed
//! [`RockError::NonFiniteSimilarity`] instead of mis-clustering or
//! panicking.

use super::{PairwiseSimilarity, Similarity};
use crate::error::RockError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps a similarity measure and records the first non-finite value it
/// returns.
///
/// The wrapper is transparent on the happy path — finite values pass
/// through with a single branch and no atomic traffic — and is `Sync`, so
/// it works unchanged under the parallel neighbor/labeling builders. Query
/// [`CheckedSimilarity::error`] *after* the wrapped computation completes
/// (worker threads joined); the latch is then guaranteed visible.
#[derive(Debug)]
pub struct CheckedSimilarity<S> {
    inner: S,
    seen: AtomicBool,
    bits: AtomicU64,
}

impl<S> CheckedSimilarity<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        CheckedSimilarity {
            inner,
            seen: AtomicBool::new(false),
            bits: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    #[inline]
    fn observe(&self, v: f64) -> f64 {
        if !v.is_finite() {
            // First writer wins; later non-finite values only re-arm the
            // (already set) latch.
            if !self.seen.swap(true, Ordering::AcqRel) {
                self.bits.store(v.to_bits(), Ordering::Release);
            }
        }
        v
    }

    /// The typed error for the first non-finite value seen, if any.
    pub fn error(&self) -> Option<RockError> {
        self.seen.load(Ordering::Acquire).then(|| RockError::NonFiniteSimilarity {
            value: f64::from_bits(self.bits.load(Ordering::Acquire)),
        })
    }
}

impl<P, S: Similarity<P>> Similarity<P> for CheckedSimilarity<S> {
    #[inline]
    fn similarity(&self, a: &P, b: &P) -> f64 {
        self.observe(self.inner.similarity(a, b))
    }

    /// Forwarded: the capability's contract makes every value the item
    /// path skips finite, so nothing the latch could see is lost.
    fn item_set<'p>(&self, p: &'p P) -> Option<&'p [u32]> {
        self.inner.item_set(p)
    }
}

impl<S: PairwiseSimilarity> PairwiseSimilarity for CheckedSimilarity<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn sim(&self, i: usize, j: usize) -> f64 {
        self.observe(self.inner.sim(i, j))
    }

    /// Forwarded, as for [`Similarity::item_set`].
    fn item_set(&self, i: usize) -> Option<&[u32]> {
        self.inner.item_set(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith};

    struct NanAt(usize, std::sync::atomic::AtomicUsize);

    impl Similarity<Transaction> for NanAt {
        fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
            let i = self.1.fetch_add(1, Ordering::Relaxed);
            if i == self.0 {
                f64::NAN
            } else {
                Jaccard.similarity(a, b)
            }
        }
    }

    #[test]
    fn finite_values_pass_through_untouched() {
        let c = CheckedSimilarity::new(Jaccard);
        let a = Transaction::from([1, 2]);
        let b = Transaction::from([2, 3]);
        assert!((c.similarity(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.error(), None);
    }

    #[test]
    fn latches_first_non_finite_value() {
        let c = CheckedSimilarity::new(NanAt(1, Default::default()));
        let a = Transaction::from([1, 2]);
        let _ = c.similarity(&a, &a); // finite
        let _ = c.similarity(&a, &a); // NaN
        let _ = c.similarity(&a, &a); // finite again; latch stays set
        match c.error() {
            Some(RockError::NonFiniteSimilarity { value }) => assert!(value.is_nan()),
            other => panic!("expected NonFiniteSimilarity, got {other:?}"),
        }
    }

    #[test]
    fn forwards_the_item_set_capability() {
        let t = Transaction::from([3, 1, 2]);
        let c = CheckedSimilarity::new(&Jaccard);
        assert_eq!(c.item_set(&t), Some(&[1, 2, 3][..]));
        // A measure without the capability stays without it.
        let opaque = CheckedSimilarity::new(NanAt(usize::MAX, Default::default()));
        assert_eq!(opaque.item_set(&t), None);

        // The index-addressed trait forwards it too.
        let points = [t];
        let pairwise = CheckedSimilarity::new(PointsWith::new(&points, Jaccard));
        assert_eq!(PairwiseSimilarity::item_set(&pairwise, 0), Some(&[1, 2, 3][..]));
        assert_eq!(PairwiseSimilarity::item_set(&InfAt01, 0), None);
    }

    /// A pairwise source with one non-finite entry (an expert table built
    /// from a buggy formula; [`SimilarityMatrix`] itself rejects these).
    struct InfAt01;

    impl PairwiseSimilarity for InfAt01 {
        fn len(&self) -> usize {
            3
        }

        fn sim(&self, i: usize, j: usize) -> f64 {
            if (i, j) == (0, 1) || (i, j) == (1, 0) {
                f64::INFINITY
            } else {
                0.5
            }
        }
    }

    #[test]
    fn pairwise_wrapper_checks_too() {
        let c = CheckedSimilarity::new(InfAt01);
        assert_eq!(c.len(), 3);
        let _ = c.sim(0, 2);
        assert_eq!(c.error(), None);
        let _ = c.sim(0, 1);
        match c.error() {
            Some(RockError::NonFiniteSimilarity { value }) => {
                assert_eq!(value, f64::INFINITY);
            }
            other => panic!("expected NonFiniteSimilarity, got {other:?}"),
        }
    }
}
