//! The merge goodness measure (§4.2) and the neighbor-exponent function
//! f(θ) (§3.3).
//!
//! ROCK merges, at every step, the pair of clusters maximising
//!
//! ```text
//!                         link[Cᵢ, Cⱼ]
//! g(Cᵢ, Cⱼ) = ─────────────────────────────────────────
//!             (nᵢ+nⱼ)^(1+2f(θ)) − nᵢ^(1+2f(θ)) − nⱼ^(1+2f(θ))
//! ```
//!
//! The denominator is the *expected* number of cross links under the
//! heuristic that each point of a cluster of size `n` has about `n^{f(θ)}`
//! neighbors inside it; dividing by it stops large clusters (which always
//! have many raw cross links) from swallowing everything.

/// Estimate of the exponent f(θ) such that a point in cluster `Cᵢ` has
/// about `nᵢ^{f(θ)}` neighbors within the cluster (§3.3).
///
/// The paper stresses that an "inaccurate but reasonable" estimate works
/// well because every cluster is normalised the same way.
pub trait FTheta {
    /// The exponent for similarity threshold `theta ∈ [0, 1]`.
    fn f(&self, theta: f64) -> f64;
}

impl<T: FTheta + ?Sized> FTheta for &T {
    fn f(&self, theta: f64) -> f64 {
        (**self).f(theta)
    }
}

/// The paper's market-basket estimate `f(θ) = (1−θ)/(1+θ)` (§3.3),
/// derived for transactions of roughly uniform size uniformly spread over
/// a cluster's items. At θ = 1 every point's only neighbor is itself
/// (f = 0); at θ = 0 every point neighbors every other point (f = 1).
///
/// This is the default and is used for all of the paper's experiments
/// (§5: "we used ... f(θ) = (1−θ)/(1+θ)").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BasketF;

impl FTheta for BasketF {
    fn f(&self, theta: f64) -> f64 {
        (1.0 - theta) / (1.0 + theta)
    }
}

/// A constant, data-set-supplied exponent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConstantF(pub f64);

impl FTheta for ConstantF {
    fn f(&self, _theta: f64) -> f64 {
        self.0
    }
}

/// Which numerator/denominator the merge criterion uses — the ablation
/// §4.2 motivates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GoodnessKind {
    /// The paper's measure: cross links divided by their expectation.
    #[default]
    Normalized,
    /// The naive measure the paper argues against: raw cross-link count.
    /// Kept for the ablation bench; large clusters swallow small ones.
    RawLinks,
}

/// Precomputed parameters of the goodness measure for a fixed θ and f.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Goodness {
    /// The exponent `1 + 2·f(θ)`.
    exponent: f64,
    kind: GoodnessKind,
}

impl Goodness {
    /// Builds the measure for threshold `theta` with estimate `f`.
    ///
    /// # Panics
    /// Panics if `theta ∉ [0, 1]` or `f(θ)` is not finite and non-negative.
    pub fn new<F: FTheta>(theta: f64, f: F, kind: GoodnessKind) -> Self {
        assert!(
            (0.0..=1.0).contains(&theta),
            "theta must be in [0, 1], got {theta}"
        );
        let ftheta = f.f(theta);
        assert!(
            ftheta.is_finite() && ftheta >= 0.0,
            "f(theta) must be finite and non-negative, got {ftheta}"
        );
        Goodness {
            exponent: 1.0 + 2.0 * ftheta,
            kind,
        }
    }

    /// The exponent `1 + 2·f(θ)` used in the expected-link counts.
    pub(crate) fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The configured numerator/denominator variant.
    pub fn kind(&self) -> GoodnessKind {
        self.kind
    }

    /// Expected number of links between pairs of points *within* one
    /// cluster of size `n`: `n^{1+2f(θ)}` (§3.3).
    #[inline]
    pub(crate) fn expected_within(&self, n: usize) -> f64 {
        (n as f64).powf(self.exponent)
    }

    /// Expected number of *cross* links created by merging clusters of
    /// sizes `n1` and `n2` (the denominator of g).
    #[inline]
    fn expected_cross(&self, n1: usize, n2: usize) -> f64 {
        self.expected_within(n1 + n2) - self.expected_within(n1) - self.expected_within(n2)
    }

    /// The goodness `g(Cᵢ, Cⱼ)` of merging clusters of sizes `n1`, `n2`
    /// with `links` cross links.
    ///
    /// Always finite; with zero cross links the goodness is 0.
    #[inline]
    pub fn merge_goodness(&self, links: u64, n1: usize, n2: usize) -> f64 {
        match self.kind {
            GoodnessKind::Normalized => {
                if links == 0 {
                    0.0
                } else {
                    links as f64 / self.expected_cross(n1, n2)
                }
            }
            GoodnessKind::RawLinks => links as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basket_f_endpoints() {
        assert_eq!(BasketF.f(1.0), 0.0);
        assert_eq!(BasketF.f(0.0), 1.0);
        assert!((BasketF.f(0.5) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exponent_at_half_theta() {
        // θ = 0.5 → f = 1/3 → exponent 5/3 (§4.4 uses this to argue
        // m_a ≈ n^{1/3}).
        let g = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        assert!((g.exponent() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn expected_cross_is_positive_and_monotone() {
        let g = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        let mut prev = 0.0;
        for n in 1..50 {
            let e = g.expected_cross(n, n);
            assert!(e > prev, "expected cross links grow with cluster size");
            prev = e;
        }
    }

    #[test]
    fn normalization_penalises_large_clusters() {
        // Equal cross links: merging two small clusters must look better
        // than merging two large ones (§4.2's anti-swallowing argument).
        let g = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        let small = g.merge_goodness(10, 3, 3);
        let large = g.merge_goodness(10, 300, 300);
        assert!(small > large);
    }

    #[test]
    fn raw_kind_ignores_sizes() {
        let g = Goodness::new(0.5, BasketF, GoodnessKind::RawLinks);
        assert_eq!(g.merge_goodness(10, 3, 3), 10.0);
        assert_eq!(g.merge_goodness(10, 300, 300), 10.0);
    }

    #[test]
    fn zero_links_zero_goodness() {
        for kind in [GoodnessKind::Normalized, GoodnessKind::RawLinks] {
            let g = Goodness::new(0.8, BasketF, kind);
            assert_eq!(g.merge_goodness(0, 5, 7), 0.0);
        }
    }

    #[test]
    fn theta_one_singletons() {
        // f = 0 → exponent 1 → expected cross links (n1+n2) − n1 − n2 = 0;
        // goodness must stay finite (we define 0/0 = 0 via the links == 0
        // branch, and links > 0 with zero expectation → +inf would mean the
        // estimate is inconsistent; exercise the defined branch only).
        let g = Goodness::new(1.0, BasketF, GoodnessKind::Normalized);
        assert_eq!(g.merge_goodness(0, 1, 1), 0.0);
    }

    #[test]
    fn constant_f_passthrough() {
        let g = Goodness::new(0.3, ConstantF(0.25), GoodnessKind::Normalized);
        assert!((g.exponent() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1]")]
    fn invalid_theta_panics() {
        let _ = Goodness::new(-0.1, BasketF, GoodnessKind::Normalized);
    }
}
