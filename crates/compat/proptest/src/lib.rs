//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset this workspace's property tests use: range strategies
//! for integers and floats, tuple strategies, `collection::vec`, `Just`,
//! `any::<T>()`, `prop_map`/`prop_flat_map`, `prop_oneof!`, and the
//! `proptest!` test macro with `#![proptest_config(...)]`. Cases are generated
//! from a deterministic per-case RNG, so failures are reproducible by rerunning
//! the test; there is **no shrinking** — on failure the failing case index is
//! printed so the case can be replayed.

pub mod test_runner {
    /// SplitMix64-based deterministic generator for test cases.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the `case`-th execution of a `proptest!` test.
        pub fn from_case(case: u32) -> Self {
            Self {
                // Fixed stream base; each case gets a distinct, reproducible
                // starting point.
                state: 0xA076_1D64_78BD_642Fu64 ^ ((case as u64) << 17),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for producing values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

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

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.next_f64() * (self.end() - self.start())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Object-safe strategy facade so `prop_oneof!` can mix strategy types.
    pub trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Uniform choice over boxed strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn DynStrategy<T>>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<Box<dyn DynStrategy<T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate_dyn(rng)
        }
    }

    /// Types with a canonical "anything" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Bounds accepted as the length argument of [`vec`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Mirrors `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Prints the failing case index when a `proptest!` case panics, since the
/// shim has no shrinking to report a minimal input.
#[doc(hidden)]
pub struct CaseReporter {
    pub case: u32,
    pub test: &'static str,
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest(shim): test `{}` failed at case {} (deterministic; rerun reproduces it)",
                self.test, self.case
            );
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                for case in 0..config.cases {
                    let reporter = $crate::CaseReporter { case, test: stringify!($name) };
                    let mut prop_rng = $crate::test_runner::TestRng::from_case(case);
                    $(
                        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut prop_rng);
                    )+
                    { $body }
                    drop(reporter);
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )*
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strat) as Box<dyn $crate::strategy::DynStrategy<_>>),+
        ])
    };
}

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

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Any, Arbitrary, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_case(0);
        for _ in 0..500 {
            let v = Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let w = Strategy::generate(&(5i64..=7), &mut rng);
            assert!((5..=7).contains(&w));
            let f = Strategy::generate(&(-4.0f64..4.0), &mut rng);
            assert!((-4.0..4.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_length_bounds() {
        let mut rng = TestRng::from_case(1);
        for _ in 0..200 {
            let v = Strategy::generate(&collection::vec(0u32..5, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut rng = TestRng::from_case(2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[Strategy::generate(&strat, &mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn flat_map_chains_dependent_strategies() {
        let strat = (1usize..5).prop_flat_map(|n| collection::vec(0usize..n, n..=n));
        let mut rng = TestRng::from_case(3);
        for _ in 0..100 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < v.len() || x < 5));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_tuple_patterns(
            (a, b) in (0u32..10, 0u32..10),
            flip in any::<bool>(),
        ) {
            let sum = a + b;
            prop_assert!(sum < 20);
            if flip {
                prop_assert_eq!(sum, b + a);
            }
        }
    }
}
