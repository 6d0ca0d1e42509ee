//! Offline shim for the `rand` crate (0.9-style API surface).
//!
//! Implements exactly what cloudconst uses: a seedable deterministic
//! generator ([`rngs::StdRng`], xoshiro256++ seeded via SplitMix64), the
//! [`Rng`] extension trait with `random`/`random_range`/`random_bool`, and
//! [`seq::SliceRandom::shuffle`]. Streams are NOT bit-compatible with the
//! real rand crate — all seed-sensitive tests in this workspace were
//! calibrated against this generator.

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32 bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (SplitMix64-expanded internally).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable from the "standard" distribution of [`Rng::random`].
pub trait StandardSample {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

/// Ranges usable with [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let u = <$t as StandardSample>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let u = <$t as StandardSample>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
float_range!(f32, f64);

/// User-facing generator extension trait (rand 0.9 naming).
pub trait Rng: RngCore {
    /// Sample from the standard distribution of `T`.
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample from a range.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the shim's standard generator. Fast, passes BigCrush,
    /// and fully deterministic from a 64-bit seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// Alias kept for API compatibility.
    pub type SmallRng = StdRng;

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // All-zero state is invalid for xoshiro; SplitMix64 cannot
            // produce four zero outputs in a row, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E3779B97F4A7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence-related random operations.

    use super::Rng;

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` for an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.random_range(5..10usize);
            assert!((5..10).contains(&v));
            let f = r.random_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
            let i = r.random_range(0..=4i32);
            assert!((0..=4).contains(&i));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = StdRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn mean_of_uniform_near_half() {
        let mut r = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
