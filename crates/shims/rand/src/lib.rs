//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates registry, so this
//! workspace vendors the tiny slice of `rand`'s 0.8 API it actually
//! uses: a seedable [`rngs::StdRng`] plus [`Rng::gen_range`] /
//! [`Rng::gen_bool`]. The generator is xoshiro256** seeded through
//! SplitMix64 — deterministic across platforms, which is all the
//! workload generators and tests need (they only ever construct
//! RNGs through `SeedableRng::seed_from_u64`).
//!
//! This is **not** a cryptographic RNG and makes no attempt to match
//! upstream `rand`'s value streams; seeds here produce different (but
//! stable) sequences.

/// Sampling from a range, implemented for the integer range types the
/// workspace uses with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample(self, rng: &mut impl RngCore) -> T;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing random-value methods, mirroring `rand::Rng`.
pub trait Rng: RngCore + Sized {
    /// Uniform sample from `range` (`low..high` or `low..=high`).
    ///
    /// # Panics
    /// If the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli sample: `true` with probability `p`.
    ///
    /// # Panics
    /// If `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0,1]");
        // 53 random bits → uniform f64 in [0,1)
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

impl<T: RngCore> Rng for T {}

/// Construction of RNGs from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Seed type (fixed-size byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64` (the only constructor this workspace uses).
    fn seed_from_u64(state: u64) -> Self {
        // SplitMix64-expand the u64 into the full seed, as upstream does.
        let mut sm = state;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64(&mut sm);
            for (b, s) in chunk.iter_mut().zip(v.to_le_bytes()) {
                *b = s;
            }
        }
        Self::from_seed(seed)
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator, the stand-in for
    /// `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            r
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(b);
            }
            // xoshiro must not start in the all-zero state
            if s == [0; 4] {
                s = [0x9E3779B97F4A7C15, 0x6A09E667F3BCC909, 0xB7E151628AED2A6A, 1];
            }
            StdRng { s }
        }
    }
}

/// Uniform `u64` below `n` (> 0) without modulo bias, via Lemire's
/// multiply-shift with rejection.
#[inline]
fn uniform_below(rng: &mut impl RngCore, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let (hi, lo) = {
            let m = (x as u128) * (n as u128);
            ((m >> 64) as u64, m as u64)
        };
        // rejection zone keeps the distribution exactly uniform
        if lo < n.wrapping_neg() % n {
            continue;
        }
        return hi;
    }
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_sample_range_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20u64);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&w));
            let x = rng.gen_range(0..=3usize);
            assert!(x <= 3);
        }
    }

    #[test]
    fn all_values_reachable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&hits), "p=0.5 gave {hits}/10000");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0..u64::MAX)).collect();
        assert_ne!(va, vb);
    }
}
