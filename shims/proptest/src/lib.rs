//! Offline shim for `proptest`.
//!
//! Keeps the strategy-combinator programming model (`Strategy`, `prop_map`,
//! `prop_flat_map`, `collection::vec`, range strategies, the `proptest!`
//! macro) but replaces the engine: inputs are sampled from a deterministic
//! generator seeded from the test's module path and name, and failures are
//! reported without shrinking. `prop_assert*` are plain `assert*` wrappers,
//! so a failing case panics with the sampled values' assertion message.

use rand::RngCore;

pub mod test_runner {
    //! Deterministic case generator.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// RNG driving one property test; seeded from the test's full name so
    /// every run (and every machine) samples the same cases.
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Seed from an arbitrary label (FNV-1a of the bytes).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// Run-count configuration (the shim honours only `cases`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` sampled inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating values of `Value`.
pub trait Strategy: Sized {
    type Value;

    /// Draw one value.
    fn sample_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Generate a value, then a dependent strategy from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample_value(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample_value(rng)).sample_value(rng)
    }
}

/// Strategy yielding a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample_value(&self, rng: &mut TestRng) -> $t {
                rand::Rng::random_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample_value(&self, rng: &mut TestRng) -> $t {
                rand::Rng::random_range(rng, self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample_value(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Element-count specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.min == self.size.max {
                self.size.min
            } else {
                rand::Rng::random_range(rng, self.size.min..=self.size.max)
            };
            (0..len).map(|_| self.element.sample_value(rng)).collect()
        }
    }
}

/// Strategy for `bool` (unbiased).
impl Strategy for fn() -> bool {
    type Value = bool;

    fn sample_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Property-test failure carrier (kept for API familiarity; the shim's
/// `prop_assert*` macros panic instead of returning this).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Defines `#[test]` functions that run their body against sampled inputs.
///
/// Supports the standard form: an optional
/// `#![proptest_config(...)]` header followed by `fn name(pat in strategy,
/// ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..config.cases {
                // One strategy set per case; sampled before the body runs
                // so a panic message can cite the case number.
                let run = || {
                    $(let $pat = $crate::Strategy::sample_value(&($strat), &mut rng);)*
                    $body
                };
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(run),
                );
                if let Err(payload) = outcome {
                    eprintln!(
                        "proptest shim: property `{}` failed on case {}/{} (no shrinking)",
                        stringify!($name), case + 1, config.cases,
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair_strategy() -> impl Strategy<Value = (usize, f64)> {
        (1usize..10, -1.0f64..1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_hold(n in 2usize..=8, x in 0.5f64..2.0) {
            prop_assert!((2..=8).contains(&n));
            prop_assert!((0.5..2.0).contains(&x));
        }

        #[test]
        fn flat_map_len_matches(v in (1usize..6).prop_flat_map(|n| {
            crate::collection::vec(0.0f64..1.0, n * 2).prop_map(move |data| (n, data))
        })) {
            let (n, data) = v;
            prop_assert_eq!(data.len(), n * 2);
        }

        #[test]
        fn tuple_and_just(p in pair_strategy(), fixed in Just(7u32)) {
            prop_assert!(p.0 >= 1 && p.0 < 10);
            prop_assert_ne!(fixed, 0);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        use crate::test_runner::TestRng;
        let strat = crate::collection::vec(0u64..1000, 3..10);
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        for _ in 0..20 {
            assert_eq!(
                crate::Strategy::sample_value(&strat, &mut a),
                crate::Strategy::sample_value(&strat, &mut b)
            );
        }
    }
}
