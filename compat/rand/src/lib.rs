//! Offline shim for the `rand` crate (0.8-era API subset).
//!
//! Provides `rngs::StdRng`, `SeedableRng::seed_from_u64`, and the
//! `Rng` methods the workspace uses (`gen`, `gen_range`, `gen_bool`).
//! The generator is xoshiro256** seeded via splitmix64 — deterministic
//! across platforms, which is exactly what the synthetic-image
//! constructors and the property tests need. The streams differ from
//! upstream `StdRng` (ChaCha12), so seeds don't reproduce upstream
//! sequences — no test in this workspace depends on those.

#![forbid(unsafe_code)]

pub mod rngs {
    /// Deterministic xoshiro256** generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn from_u64(seed: u64) -> Self {
            // splitmix64 stream to fill the state, per the xoshiro
            // authors' recommendation.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }

        pub(crate) fn next_u64_impl(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

/// Seedable construction (subset: `seed_from_u64`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng::from_u64(seed)
    }
}

/// Raw 64-bit output.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_u64_impl()
    }
}

/// Values `gen()` can produce from the "standard" distribution.
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with `Rng::gen_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                let v = rng.next_u64() % span;
                (self.start as $wide).wrapping_add(v as $wide) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let v = rng.next_u64() % (span + 1);
                (lo as $wide).wrapping_add(v as $wide) as $t
            }
        }
    )*};
}
impl_range_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = f64::sample_standard(rng);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = f32::sample_standard(rng);
        self.start + unit * (self.end - self.start)
    }
}

/// User-facing convenience methods, rand-0.8 style.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(-1000i32..1000);
            assert!((-1000..1000).contains(&v));
            let u = rng.gen_range(1usize..=8);
            assert!((1..=8).contains(&u));
            let f = rng.gen_range(-200.0f64..200.0);
            assert!((-200.0..200.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(0);
        let mut b = StdRng::seed_from_u64(1);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }
}
