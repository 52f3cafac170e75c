//! Deterministic fault injection for similarity measures.
//!
//! Half of the workspace's fault-injection harness (the I/O half lives in
//! `rock_data::faults`). [`FaultySimilarity`] wraps any [`Similarity`] or
//! [`PairwiseSimilarity`] and replaces a seeded, reproducible subset of its
//! return values with NaN — the canonical "user measure divides by zero"
//! failure. Tests and benches use it to prove that the checked entry
//! points surface [`crate::error::RockError::NonFiniteSimilarity`] and that
//! the streaming labeling driver quarantines the affected records instead
//! of panicking.

use super::{PairwiseSimilarity, Similarity};
use crate::util::seeded_hit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fault-schedule stream id, kept distinct from `rock_data::faults`
/// streams so reader and similarity faults decorrelate under one seed.
const STREAM_SIMILARITY: u64 = 0x51;

/// Wraps a similarity measure and returns NaN on a seeded schedule of
/// call indices.
///
/// The schedule is a pure function of `(seed, call index)`: the n-th
/// similarity evaluation faults iff `seeded_hit(seed, ·, n, rate)`. Under
/// a single thread the faulting *pairs* are therefore fully reproducible;
/// under parallel builds the faulting call indices are still
/// deterministic but their assignment to pairs depends on scheduling —
/// use `threads = 1` where exact fault placement matters.
#[derive(Debug)]
pub struct FaultySimilarity<S> {
    inner: S,
    seed: u64,
    rate: f64,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl<S> FaultySimilarity<S> {
    /// Wraps `inner`, faulting each call independently with probability
    /// `rate` (clamped to `[0, 1]`) under `seed`.
    pub fn new(inner: S, seed: u64, rate: f64) -> Self {
        FaultySimilarity {
            inner,
            seed,
            rate: rate.clamp(0.0, 1.0),
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Number of similarity evaluations so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Number of NaNs injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Unwraps the measure.
    pub fn into_inner(self) -> S {
        self.inner
    }

    #[inline]
    fn next_is_fault(&self) -> bool {
        let i = self.calls.fetch_add(1, Ordering::Relaxed);
        let hit = seeded_hit(self.seed, STREAM_SIMILARITY, i, self.rate);
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

impl<P, S: Similarity<P>> Similarity<P> for FaultySimilarity<S> {
    fn similarity(&self, a: &P, b: &P) -> f64 {
        if self.next_is_fault() {
            f64::NAN
        } else {
            self.inner.similarity(a, b)
        }
    }
}

impl<S: PairwiseSimilarity> PairwiseSimilarity for FaultySimilarity<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sim(&self, i: usize, j: usize) -> f64 {
        if self.next_is_fault() {
            f64::NAN
        } else {
            self.inner.sim(i, j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::Jaccard;

    #[test]
    fn zero_rate_is_transparent() {
        let f = FaultySimilarity::new(Jaccard, 7, 0.0);
        let a = Transaction::from([1, 2]);
        let b = Transaction::from([2, 3]);
        for _ in 0..100 {
            assert!((f.similarity(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(f.injected(), 0);
        assert_eq!(f.calls(), 100);
    }

    #[test]
    fn unit_rate_faults_every_call() {
        let f = FaultySimilarity::new(Jaccard, 7, 1.0);
        let a = Transaction::from([1, 2]);
        assert!(f.similarity(&a, &a).is_nan());
        assert_eq!(f.injected(), 1);
    }

    #[test]
    fn hides_the_item_set_so_labeling_still_latches_nan() {
        use crate::labeling::Labeler;
        use crate::similarity::CheckedSimilarity;
        let faulty = FaultySimilarity::new(Jaccard, 7, 1.0);
        let a = Transaction::from([1, 2]);
        assert_eq!(faulty.item_set(&a), None);
        // Every evaluation faults, so the brute-force pass the labeler
        // must fall back to hands the checked wrapper a NaN.
        let sample = vec![a.clone(), Transaction::from([2, 3])];
        let labeler = Labeler::full(&sample, &[vec![0, 1]], 0.4, 1.0 / 3.0);
        let checked = CheckedSimilarity::new(faulty);
        let labeling = labeler
            .label_all(&[a], &checked, 1, &crate::governor::RunGovernor::unlimited())
            .unwrap();
        assert_eq!(labeling.num_outliers, 1);
        assert!(checked.error().is_some());
        assert_eq!(checked.into_inner().calls(), 2);
    }

    #[test]
    fn schedule_is_reproducible_per_seed() {
        let a = Transaction::from([1, 2]);
        let pattern = |seed: u64| -> Vec<bool> {
            let f = FaultySimilarity::new(Jaccard, seed, 0.3);
            (0..200).map(|_| f.similarity(&a, &a).is_nan()).collect()
        };
        assert_eq!(pattern(11), pattern(11));
        assert_ne!(pattern(11), pattern(12));
        assert!(pattern(11).iter().any(|&x| x), "rate 0.3 never fired");
        assert!(pattern(11).iter().any(|&x| !x), "rate 0.3 always fired");
    }
}
