//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro with `proptest_config`, [`Strategy`] with
//! `prop_map`/`prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], [`option::of`], [`any`], a minimal `.{m,n}`
//! string pattern, and the `prop_assert!`/`prop_assert_eq!` macros.
//!
//! Differences from real proptest: cases are generated from a
//! deterministic per-test RNG (seeded from the test name, overridable
//! with `PROPTEST_RNG_SEED`), and failing inputs are reported but **not
//! shrunk**. `PROPTEST_CASES` caps the case count for smoke runs.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Test execution plumbing: RNG and failure type.

    /// Error carried out of a failing property-test case.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic RNG for value generation (splitmix64 core).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name (FNV-1a), or `PROPTEST_RNG_SEED` when set,
        /// so each test gets a stable but distinct stream.
        pub fn deterministic(test_name: &str) -> Self {
            if let Ok(s) = std::env::var("PROPTEST_RNG_SEED") {
                if let Ok(seed) = s.trim().parse::<u64>() {
                    return TestRng { state: seed };
                }
            }
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            loop {
                let x = self.next_u64();
                let m = (x as u128) * (bound as u128);
                let lo = m as u64;
                if lo >= bound || lo >= bound.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Case count with the `PROPTEST_CASES` env override applied (used by
    /// CI smoke runs to keep property tests fast).
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
            .map(|n| n.min(self.cases).max(1))
            .unwrap_or(self.cases)
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        // Occasionally emit the exact endpoints so boundary behaviour is
        // exercised, which a pure open-interval draw would never hit.
        match rng.below(64) {
            0 => start,
            1 => end,
            _ => start + rng.unit_f64() * (end - start),
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

/// Minimal `.{m,n}` pattern strategy for `&'static str` patterns: a
/// random-length string of printable characters (newline excluded, like
/// regex `.`). Any other pattern is produced literally.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        if let Some((min, max)) = parse_dot_repeat(self) {
            let len = min + rng.below((max - min + 1) as u64) as usize;
            let mut s = String::with_capacity(len);
            for _ in 0..len {
                let c = match rng.below(20) {
                    // Mostly printable ASCII, occasionally wider unicode.
                    0 => char::from_u32(0xA0 + rng.below(0x2000) as u32).unwrap_or('¤'),
                    1 => '\t',
                    _ => (0x20u8 + rng.below(0x5f) as u8) as char,
                };
                s.push(c);
            }
            s
        } else {
            (*self).to_string()
        }
    }
}

/// Parses a pattern of the exact form `.{m,n}`.
fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
    let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = body.split_once(',')?;
    let lo: usize = lo.trim().parse().ok()?;
    let hi: usize = hi.trim().parse().ok()?;
    (lo <= hi).then_some((lo, hi))
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T` (via [`Arbitrary`]).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a half-open
    /// range of lengths.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + if span == 0 { 0 } else { rng.below(span) as usize };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vector strategy: `size` may be a `usize` or a `Range<usize>`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // ~3:1 Some:None, mirroring proptest's default weighting.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `None` sometimes, `Some(value)` usually.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod strategy {
    //! Re-exports mirroring proptest's module layout.
    pub use super::{FlatMap, Map, Strategy};
}

pub mod prelude {
    //! Glob-import surface: traits, config, and macros.
    pub use super::test_runner::TestCaseError;
    pub use super::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts a condition inside a `proptest!` test, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    __l,
                    __r
                ),
            ));
        }
    }};
}

/// Defines property tests. Each `#[test] fn name(arg in strategy, ...)`
/// item becomes a normal `#[test]` that runs the body over `cases`
/// generated inputs; failing inputs are reported with their case number
/// (no shrinking in this offline shim).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        #[test]
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __cases = __config.effective_cases();
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__cases {
                $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )+
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__e) = __outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __cases,
                        __e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..500 {
            let v = (3u32..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (0.25f64..=0.75).generate(&mut rng);
            assert!((0.25..=0.75).contains(&f));
        }
    }

    #[test]
    fn vec_sizes() {
        let mut rng = TestRng::deterministic("vec");
        for _ in 0..200 {
            let v = vec(0u8..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            let exact = vec(any::<u64>(), 7usize).generate(&mut rng);
            assert_eq!(exact.len(), 7);
        }
    }

    #[test]
    fn dot_repeat_pattern() {
        let mut rng = TestRng::deterministic("pattern");
        for _ in 0..100 {
            let s = ".{0,300}".generate(&mut rng);
            assert!(s.chars().count() <= 300);
            assert!(!s.contains('\n'));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_roundtrip(a in 0usize..50, pair in (0u32..4, 0u32..4)) {
            prop_assert!(a < 50);
            prop_assert_eq!(pair.0 / 4, 0, "quotient must vanish, got {:?}", pair);
        }
    }
}
