//! Offline shim for the `rand` crate.
//!
//! This workspace builds without network access, so the handful of `rand`
//! APIs it uses are reimplemented here: [`rngs::StdRng`] (xoshiro256++
//! seeded through SplitMix64), [`SeedableRng::seed_from_u64`], and the
//! [`Rng`] extension methods `gen`, `gen_bool`, and `gen_range` over the
//! integer/float range forms that appear in the tree.
//!
//! The stream differs from upstream `rand` 0.8 (which uses ChaCha12 for
//! `StdRng`); all in-tree consumers treat the generator as an arbitrary
//! deterministic stream keyed by a seed, which this shim preserves.

/// Low-level generator interface.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (high half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly over their whole domain by
/// [`Rng::gen`] (the shim analogue of the `Standard` distribution).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges accepted by [`Rng::gen_range`]. The element type is an
/// associated type (not a trait parameter) so integer-literal ranges
/// infer from the use site, e.g. `rng.gen_range(1..=16).min(n)`.
pub trait SampleRange {
    /// The sampled element type.
    type Output;
    /// Draw a value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

// Every element type is at most 64 bits wide, so a span fits in a `u64`
// unless it is all 2⁶⁴ values, which wraps to 0 and takes the word as it
// is. With sign-extending casts and wrapping arithmetic this gives what
// the `u128` formula `(lo + x % span) as T` gives, without a 128-bit `%`.
macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.next_u64() % span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                let x = rng.next_u64();
                (lo as u64).wrapping_add(if span == 0 { x } else { x % span }) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + (self.end - self.start) * unit
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
}

/// High-level sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Sample a value uniformly over the type's whole domain.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::sample(self) < p
    }

    /// Uniform draw from a half-open or inclusive range.
    #[inline]
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256++ — fast, high-quality, and deterministic across
    /// platforms. Stands in for upstream's ChaCha12-based `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let v = r.gen_range(0u8..=255);
            let _ = v;
            let v = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&v));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    /// 10 000 draws of each range form of every element type the tree
    /// draws, full-width spans included, equal the `u128` formula ranges
    /// were drawn with before their `u64` form.
    #[test]
    fn integer_ranges_draw_what_the_u128_formula_drew() {
        use super::RngCore;
        macro_rules! pinned {
            ($rng:ident, $t:ty, $lo:expr, $hi:expr) => {{
                let (lo, hi): ($t, $t) = ($lo, $hi);
                let span = (hi as u128).wrapping_sub(lo as u128);
                for _ in 0..10_000 {
                    let x = $rng.clone().next_u64() as u128;
                    let want = (lo as u128).wrapping_add(x % span) as $t;
                    assert_eq!($rng.gen_range(lo..hi), want, "{lo}..{hi}");
                    let x = $rng.clone().next_u64() as u128;
                    let want = (lo as u128).wrapping_add(x % (span + 1)) as $t;
                    assert_eq!($rng.gen_range(lo..=hi), want, "{lo}..={hi}");
                }
            }};
        }
        let mut r = StdRng::seed_from_u64(11);
        pinned!(r, u8, 0, 4);
        pinned!(r, u8, 0, u8::MAX);
        pinned!(r, u32, 2, 5);
        pinned!(r, u32, 0, u32::MAX);
        pinned!(r, u64, 3, 1 << 40);
        pinned!(r, u64, 0, u64::MAX);
        pinned!(r, usize, 1, 16);
        pinned!(r, i32, -5, 5);
        pinned!(r, i32, i32::MIN, i32::MAX);
    }

    #[test]
    fn gen_bool_rates_are_sane() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "{hits}");
        assert!(!(0..1000).any(|_| r.gen_bool(0.0)));
        assert!((0..1000).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn float_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
