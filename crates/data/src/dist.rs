//! Small sampling distributions used by the generators.
//!
//! The sanctioned dependency set includes `rand` but not `rand_distr`, so
//! the Gaussian sampler (needed for §5.3's Normal transaction sizes and
//! the mutual-fund factor model) is implemented here via the Box–Muller
//! transform.

use rand::Rng;

/// A normal (Gaussian) distribution sampler, `N(mean, std²)`, using the
/// Box–Muller transform with a cached spare variate.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates the sampler.
    ///
    /// # Panics
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(std.is_finite() && std >= 0.0, "std must be finite and >= 0");
        Normal { mean, std }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }
}

/// One standard-normal variate via Box–Muller.
///
/// (The pair-caching optimisation is deliberately omitted: it would make
/// sampling stateful and the generators draw few enough variates that the
/// extra `ln`/`sqrt` is irrelevant.)
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a transaction-size-style sample: Normal, rounded, clamped to
/// `[min, max]` (§5.3's sizes have mean 15 with 98% of mass in 11..=19).
pub(crate) fn clamped_normal_usize<R: Rng + ?Sized>(
    normal: &Normal,
    min: usize,
    max: usize,
    rng: &mut R,
) -> usize {
    assert!(min <= max, "min must be <= max");
    let x = normal.sample(rng).round();
    if x < min as f64 {
        min
    } else if x > max as f64 {
        max
    } else {
        x as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn moments_are_roughly_right() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = Normal::new(15.0, 1.7);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        assert!((mean - 15.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 1.7).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn paper_size_distribution_shape() {
        // §5.3: mean 15, "98% of transactions have sizes between 11 and
        // 19". σ = 1.7 gives that mass.
        let mut rng = StdRng::seed_from_u64(7);
        let n = Normal::new(15.0, 1.7);
        let total = 20_000;
        let inside = (0..total)
            .filter(|_| {
                let s = n.sample(&mut rng);
                (11.0..=19.0).contains(&s)
            })
            .count();
        let frac = inside as f64 / total as f64;
        assert!(frac > 0.97 && frac < 0.995, "fraction in [11,19]: {frac}");
    }

    #[test]
    fn clamped_sampler_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = Normal::new(5.0, 10.0);
        for _ in 0..1000 {
            let s = clamped_normal_usize(&n, 1, 8, &mut rng);
            assert!((1..=8).contains(&s));
        }
    }

    #[test]
    fn zero_std_is_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = Normal::new(4.0, 0.0);
        assert_eq!(n.sample(&mut rng), 4.0);
    }

    #[test]
    #[should_panic(expected = "std must be finite")]
    fn negative_std_panics() {
        let _ = Normal::new(0.0, -1.0);
    }
}
