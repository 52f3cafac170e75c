//! Offline stand-in for the `rand` crate (0.9 API subset).
//!
//! The build environment has no network access and an empty registry, so
//! the workspace vendors the small slice of `rand` it actually uses:
//! [`Rng::random`] (for `f64` and `u64`), [`Rng::random_range`],
//! [`SeedableRng::seed_from_u64`], [`SeedableRng::from_os_rng`], and
//! [`rngs::StdRng`].
//!
//! `StdRng` here is xoshiro256++ (Blackman & Vigna) seeded through
//! splitmix64 — the standard seeding recipe for the xoshiro family. It is
//! a high-quality non-cryptographic generator; the statistical tests in
//! `rock-data` (sample moments, reservoir uniformity) pass against it.
//! Streams are deterministic per seed but are NOT the ChaCha12 streams of
//! upstream `rand`; the workspace only relies on determinism, not on
//! matching upstream byte-for-byte.

#![forbid(unsafe_code)]

use core::ops::{Range, RangeInclusive};

/// Low-level source of random bits.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly by [`Rng::random`].
pub trait Standard: Sized {
    /// Draws one uniformly distributed value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Ranges accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics if empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start + uniform_u64(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8, i64, i32);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Unbiased uniform draw in `[0, span)` via Lemire's widening-multiply
/// method with rejection.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        let lo = m as u64;
        if lo >= span {
            return (m >> 64) as u64;
        }
        // Rejection zone: accept unless lo < (2^64 mod span).
        let threshold = span.wrapping_neg() % span;
        if lo >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// High-level sampling interface, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a uniformly distributed value of type `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`. Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` seed via splitmix64 expansion.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64(&mut state);
            let bytes = v.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }

    /// Builds the generator from OS-derived entropy (wall clock + ASLR
    /// noise in this offline shim).
    fn from_os_rng() -> Self {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        let stack_probe = 0u8;
        let aslr = &stack_probe as *const u8 as usize as u64;
        Self::seed_from_u64(t ^ aslr.rotate_left(32) ^ std::process::id() as u64)
    }
}

/// One step of the splitmix64 sequence (Steele, Lea & Flood).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the workspace's deterministic standard generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(bytes);
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state.
                s = [
                    0x9e37_79b9_7f4a_7c15,
                    0xbf58_476d_1ce4_e5b9,
                    0x94d0_49bb_1331_11eb,
                    0x2545_f491_4f6c_dd1d,
                ];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.random_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..1000 {
            let v = rng.random_range(5u32..=7);
            assert!((5..=7).contains(&v));
        }
    }
}
