//! Metric-space similarities derived from Lp distances (§1.2, §3.1).
//!
//! ROCK's neighbor definition only needs a normalized similarity; for
//! numeric data the paper mentions L₁/L₂ distances as possible bases. These
//! adapters convert a distance into `[0, 1]` via a caller-provided scale.

use super::Similarity;

/// Similarity `max(0, 1 − Lp(a, b) / scale)` over numeric vectors.
///
/// `scale` should be an upper bound on distances that should still count as
/// "somewhat similar" — e.g. the diameter of the data's bounding box. Any
/// pair at distance ≥ `scale` has similarity 0.
///
/// `p = f64::INFINITY` selects the L∞ (Chebyshev) distance.
///
/// # Examples
/// ```
/// use rock_core::similarity::{NormalizedLp, Similarity};
/// let sim = NormalizedLp::new(2.0, 10.0);
/// let a = [0.0, 0.0];
/// let b = [3.0, 4.0]; // L2 distance 5
/// assert_eq!(sim.similarity(&a[..], &b[..]), 0.5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NormalizedLp {
    p: f64,
    scale: f64,
}

impl NormalizedLp {
    /// Creates the measure for exponent `p ≥ 1` and distance scale
    /// `scale > 0`.
    ///
    /// # Panics
    /// Panics if `p < 1` or `scale` is not strictly positive and finite.
    pub fn new(p: f64, scale: f64) -> Self {
        assert!(p >= 1.0, "Lp requires p >= 1, got {p}");
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite, got {scale}"
        );
        NormalizedLp { p, scale }
    }

    /// The raw Lp distance between `a` and `b`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        if self.p.is_infinite() {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)
        } else if self.p == 1.0 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
        } else if self.p == 2.0 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        } else {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs().powf(self.p))
                .sum::<f64>()
                .powf(1.0 / self.p)
        }
    }
}

impl Similarity<[f64]> for NormalizedLp {
    fn similarity(&self, a: &[f64], b: &[f64]) -> f64 {
        (1.0 - self.distance(a, b) / self.scale).max(0.0)
    }
}

impl Similarity<Vec<f64>> for NormalizedLp {
    fn similarity(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        self.similarity(a.as_slice(), b.as_slice())
    }
}

/// Simple-matching similarity over equal-length symbol sequences: the
/// fraction of positions with equal values (1 − normalized Hamming
/// distance).
///
/// A reasonable measure for fixed-arity categorical data without missing
/// values; used by tests as an alternative to
/// [`CategoricalJaccard`](super::CategoricalJaccard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hamming;

impl<T: PartialEq> Similarity<[T]> for Hamming {
    fn similarity(&self, a: &[T], b: &[T]) -> f64 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        if a.is_empty() {
            return 0.0;
        }
        let matches = a.iter().zip(b).filter(|(x, y)| x == y).count();
        matches as f64 / a.len() as f64
    }
}

impl<T: PartialEq> Similarity<Vec<T>> for Hamming {
    fn similarity(&self, a: &Vec<T>, b: &Vec<T>) -> f64 {
        self.similarity(a.as_slice(), b.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_l2_linf_distances() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 0.0, 3.0];
        assert_eq!(NormalizedLp::new(1.0, 10.0).distance(&a, &b), 3.0);
        assert!((NormalizedLp::new(2.0, 10.0).distance(&a, &b) - 5f64.sqrt()).abs() < 1e-12);
        assert_eq!(
            NormalizedLp::new(f64::INFINITY, 10.0).distance(&a, &b),
            2.0
        );
    }

    #[test]
    fn general_p_matches_formula() {
        let a = [0.0, 0.0];
        let b = [1.0, 1.0];
        let d3 = NormalizedLp::new(3.0, 10.0).distance(&a, &b);
        assert!((d3 - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn similarity_clamped_to_zero() {
        let sim = NormalizedLp::new(2.0, 1.0);
        let a = [0.0];
        let b = [5.0];
        assert_eq!(sim.similarity(&a[..], &b[..]), 0.0);
    }

    #[test]
    fn identical_points_have_similarity_one() {
        let sim = NormalizedLp::new(2.0, 3.0);
        let a = [0.5, -1.0, 2.0];
        assert_eq!(sim.similarity(&a[..], &a[..]), 1.0);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn p_below_one_panics() {
        let _ = NormalizedLp::new(0.5, 1.0);
    }

    #[test]
    fn hamming_fraction_of_matches() {
        let a = vec![1u8, 2, 3, 4];
        let b = vec![1u8, 0, 3, 0];
        assert_eq!(Hamming.similarity(&a, &b), 0.5);
        assert_eq!(Hamming.similarity(&a, &a), 1.0);
        let e: Vec<u8> = vec![];
        assert_eq!(Hamming.similarity(&e, &e), 0.0);
    }
}
