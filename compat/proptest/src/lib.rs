//! Offline shim for the `proptest` crate.
//!
//! Re-implements the macro surface and strategy combinators this
//! workspace's property tests use, over the deterministic `rand` shim.
//! Unlike upstream proptest there is no shrinking and no failure
//! persistence: a failing case panics with the case index, and the
//! whole run is reproducible because case seeds are derived from the
//! fully-qualified test name plus the case number.
//!
//! Supported strategies: integer/float ranges, `any::<T>()`,
//! `collection::vec(strategy, size)`, and tuples up to arity 4.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-case RNG handed to strategies. Deterministic: seeded from the
/// test's module path + name and the case index.
pub struct TestRng(StdRng);

impl TestRng {
    pub fn deterministic(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37)))
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// Harness configuration (subset: case count).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values. Strategies are sampled by reference so that
/// non-`Copy` range strategies can drive many cases.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Type-erases the strategy behind a cheaply cloneable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::sync::Arc::new(self))
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
    {
        strategy::Map { inner: self, f }
    }

    /// Recursive strategies: `self` is the leaf, `recurse` builds one
    /// level from an inner strategy. The depth budget is enforced by
    /// construction (each level mixes leaves back in, and the deepest
    /// inner strategy is leaves-only), so generation always terminates;
    /// `_desired_size`/`_expected_branch` only shape upstream's size
    /// heuristics and are ignored here.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let inner = strategy::Union::new(vec![leaf.clone(), cur]).boxed();
            cur = recurse(inner).boxed();
        }
        strategy::Union::new(vec![leaf, cur]).boxed()
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.rng().gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        rng.rng().gen_range(self.clone())
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Cheaply cloneable type-erased strategy (upstream's `BoxedStrategy`).
pub struct BoxedStrategy<T>(std::sync::Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(std::sync::Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

pub mod strategy {
    pub use super::{BoxedStrategy, Just};
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.rng().gen_range(0..self.options.len());
            self.options[i].sample(rng)
        }
    }

    /// `strategy.prop_map(f)`.
    pub struct Map<S, F> {
        pub(super) inner: S,
        pub(super) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }
}

/// Marker for types `any::<T>()` can produce.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_full_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.rng().gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_full_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().gen::<bool>()
    }
}

/// Strategy producing any value of `T` (uniform over the whole type).
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident . $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

/// Collection sizes: a fixed length or a half-open range of lengths.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use rand::Rng;

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.rng().gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng};
}

/// Assertion macros. Upstream these return `Err` for shrinking; the
/// shim has no shrinking, so they panic like their `assert_*` cousins.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when the assumption fails. Works because the
/// case body runs inside a closure — `return` abandons only this case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return;
        }
    };
}

/// Uniform choice among strategies with a common value type. Upstream's
/// optional `weight =>` prefixes are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The `proptest!` block macro: expands each property into a plain
/// `#[test]` fn that samples its strategies `config.cases` times.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __proptest_rng = $crate::TestRng::deterministic(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(
                        let $arg = $crate::Strategy::sample(&($strat), &mut __proptest_rng);
                    )+
                    let run = || $body;
                    run();
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name( $($arg in $strat),+ ) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -5i32..=5, f in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_sizes_respect_range(
            v in crate::collection::vec(0u32..100, 2..7),
            fixed in crate::collection::vec(any::<bool>(), 64),
        ) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert_eq!(fixed.len(), 64);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn tuples_sample_elementwise(
            t in crate::collection::vec((-500i64..500, 0u64..10), 1..4),
        ) {
            for (a, b) in t {
                prop_assert!((-500..500).contains(&a));
                prop_assert!(b < 10);
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let sample = |case| {
            let mut rng = TestRng::deterministic("t", case);
            (0u64..1000).sample(&mut rng)
        };
        assert_eq!(sample(0), sample(0));
        assert_ne!(
            (0..16).map(sample).collect::<Vec<_>>(),
            (1..17).map(sample).collect::<Vec<_>>()
        );
    }
}
