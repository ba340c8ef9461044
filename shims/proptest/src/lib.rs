//! Offline shim for the `proptest` crate.
//!
//! Implements the strategy combinators and macros this workspace uses:
//! integer-range strategies, tuples, [`Just`], `prop_map`, weighted
//! [`prop_oneof!`], [`collection::vec`], `any::<T>()`, and the
//! [`proptest!`] / `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//! - **Deterministic**: inputs derive from a seed hashed from the test
//!   function's name, so failures reproduce exactly on re-run.
//! - **No shrinking**: a failing case reports its case index and panics
//!   with the assertion message; minimization is up to the reader.

use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary byte string (e.g. the test name).
    pub fn from_name(name: &str) -> Self {
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state }
    }

    /// Next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub(crate) type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let v = u128::from(rng.next_u64()) % span;
                (self.start as u128).wrapping_add(v) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u128) - (lo as u128) + 1;
                let v = u128::from(rng.next_u64()) % span;
                ((lo as u128) + v) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                // Uniform in [0, 1) with 53 random mantissa bits, scaled
                // into the range (upstream draws uniform-in-value too).
                let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:ident),+))+) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($n,)+) = self;
                ($($n.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Strategy over a type's whole domain.
#[derive(Debug, Clone, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy constructor.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Weighted union of boxed strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms; total weight must be > 0.
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(
            arms.iter().map(|(w, _)| u64::from(*w)).sum::<u64>() > 0,
            "prop_oneof! needs positive total weight"
        );
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.below(total);
        for (w, s) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights covered the draw")
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length distributions accepted by [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    /// Strategy producing `Vec`s of an element strategy.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `vec(element, len)`: vectors whose length is drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration.
pub mod test_runner {
    /// How many random cases each `proptest!` test executes.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Number of cases.
        pub cases: u32,
    }

    impl Config {
        /// Override the case count.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

/// Upstream-compatible `prop::` alias (`prop::collection::vec(...)`).
pub mod prop {
    pub use crate::collection;
}

/// Everything tests import.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted (or unweighted) choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
}

/// Define property tests. Each `fn name(bindings) { body }` becomes a
/// `#[test]` running the body over `cases` deterministic random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let __outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    $crate::__proptest_bind! { __rng; { $($args)* , } $body }
                }));
                if let Err(panic) = __outcome {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed (deterministic seed; re-run reproduces it)",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                    );
                    std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; { , } $body:block) => { $body };
    ($rng:ident; { } $body:block) => { $body };
    ($rng:ident; { mut $name:ident in $strategy:expr, $($rest:tt)* } $body:block) => {{
        #[allow(unused_mut)]
        let mut $name = $crate::Strategy::generate(&($strategy), &mut $rng);
        $crate::__proptest_bind! { $rng; { $($rest)* } $body }
    }};
    ($rng:ident; { $name:ident in $strategy:expr, $($rest:tt)* } $body:block) => {{
        let $name = $crate::Strategy::generate(&($strategy), &mut $rng);
        $crate::__proptest_bind! { $rng; { $($rest)* } $body }
    }};
    ($rng:ident; { mut $name:ident: $ty:ty, $($rest:tt)* } $body:block) => {{
        #[allow(unused_mut)]
        let mut $name: $ty = $crate::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind! { $rng; { $($rest)* } $body }
    }};
    ($rng:ident; { $name:ident: $ty:ty, $($rest:tt)* } $body:block) => {{
        let $name: $ty = $crate::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind! { $rng; { $($rest)* } $body }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        let strat = (0u8..4, 10u32..=20, 0usize..100);
        for _ in 0..1000 {
            let (a, b, c) = strat.generate(&mut rng);
            assert!(a < 4);
            assert!((10..=20).contains(&b));
            assert!(c < 100);
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::TestRng::from_name("lens");
        let strat = crate::collection::vec(0u8..=255, 3..7);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn oneof_weights_bias_the_draw() {
        let mut rng = crate::TestRng::from_name("oneof");
        let strat = prop_oneof![9 => Just(0u32), 1 => 1u32..100];
        let zeros = (0..10_000)
            .filter(|_| strat.generate(&mut rng) == 0)
            .count();
        assert!((8_300..9_700).contains(&zeros), "{zeros}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_binds_all_forms(
            a in 0u8..4,
            mut v in crate::collection::vec(any::<u32>(), 0..10),
            b: u16,
        ) {
            v.push(u32::from(a) + u32::from(b));
            prop_assert!(!v.is_empty());
            prop_assert_eq!(v.last().copied().unwrap(), u32::from(a) + u32::from(b));
        }
    }

    proptest! {
        #[test]
        fn prop_map_transforms(x in (0u8..10).prop_map(|v| v * 3)) {
            prop_assert!(x % 3 == 0 && x < 30);
            prop_assert_ne!(x, 255);
        }
    }
}
