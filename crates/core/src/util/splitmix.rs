//! SplitMix64 — a tiny, high-quality 64-bit mixing function.
//!
//! Used wherever the workspace needs a *stateless* deterministic hash of a
//! counter or seed — most prominently the fault-injection harness in
//! `rock_data::faults`, which must derive reproducible fault schedules
//! from `(seed, index)` pairs without threading an `Rng` through every
//! call site.

/// Mixes `x` through the SplitMix64 finalizer (Steele, Lea & Flood 2014).
///
/// The output is a bijection of the input with excellent avalanche
/// behaviour, so `splitmix64(seed ^ i)` over a counter `i` behaves like an
/// independent uniform `u64` stream per seed.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministically decides a Bernoulli(`rate`) trial for event `index` of
/// stream `(seed, stream)`.
///
/// The decision is a pure function of its arguments, so fault schedules are
/// reproducible across runs, platforms and resumptions.
pub fn seeded_hit(seed: u64, stream: u64, index: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let h = splitmix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ index);
    // Compare the top 53 bits against the rate as a dyadic rational.
    ((h >> 11) as f64) < rate * (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Known vector from the reference implementation seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn hit_rate_extremes() {
        assert!(!seeded_hit(1, 2, 3, 0.0));
        assert!(seeded_hit(1, 2, 3, 1.0));
    }

    #[test]
    fn hit_rate_is_roughly_calibrated() {
        let hits = (0..10_000)
            .filter(|&i| seeded_hit(42, 7, i, 0.1))
            .count();
        assert!((800..1200).contains(&hits), "got {hits} hits at rate 0.1");
    }

    #[test]
    fn different_streams_decorrelate() {
        let a: Vec<bool> = (0..64).map(|i| seeded_hit(5, 0, i, 0.5)).collect();
        let b: Vec<bool> = (0..64).map(|i| seeded_hit(5, 1, i, 0.5)).collect();
        assert_ne!(a, b);
    }
}
