//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the subset of the proptest API its test suites use:
//!
//! - the [`proptest!`] macro with an optional `#![proptest_config(...)]`
//!   header and `arg in strategy` parameter lists,
//! - range strategies over integers and floats, tuple strategies,
//!   [`Strategy::prop_map`], [`Just`],
//! - [`collection::vec`] and [`collection::btree_set`],
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.
//!
//! Unlike upstream proptest there is **no shrinking**: each test runs a
//! deterministic pseudo-random sweep of `cases` inputs (seeded per test
//! name), and a failing case panics with the ordinary assert message. That
//! trades minimal counterexamples for zero dependencies, which is the right
//! trade for an air-gapped build.

#![forbid(unsafe_code)]

use core::ops::{Range, RangeInclusive};

/// Deterministic per-test random source (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds the stream for one test case from a test-name hash and the
    /// case index.
    pub fn for_case(name_hash: u64, case: u64) -> TestRng {
        TestRng {
            state: name_hash ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)` with 53-bit precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample empty range");
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }
}

/// FNV-1a hash of a test name, used to decorrelate the streams of different
/// tests.
pub fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of test-case values.
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
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (bounded retries).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            pred,
            whence,
        }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    whence: &'static str,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter '{}' rejected 10000 consecutive values",
            self.whence
        );
    }
}

/// Strategy producing one constant value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + rng.unit_f64() * (hi - lo)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
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
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::{Range, RangeInclusive};
    use std::collections::BTreeSet;

    /// Inclusive bounds on a generated collection's size.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            if self.hi == self.lo {
                self.lo
            } else {
                self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with a size in `size` (best-effort
    /// if the element domain is too small for distinct values).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < n && attempts < 100 * (n + 1) {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Error a proptest case body may return with `?` / `return Err(...)`.
///
/// The shim reports it by panicking; there is no shrinking phase to feed it
/// into.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion or returned an error.
    Fail(String),
    /// The case asked to be discarded.
    Reject(String),
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// The usual glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when an assumption fails. Without shrinking we
/// simply return early (successfully) from this case's closure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Declares deterministic random-case tests.
///
/// Supports the upstream surface this workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u64..100, y in 0.0f64..1.0) {
///         prop_assert!(x as f64 + y >= 0.0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            (<$crate::ProptestConfig as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __hash = $crate::hash_name(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    let __run = |__rng: &mut $crate::TestRng|
                        -> ::core::result::Result<(), $crate::TestCaseError> {
                        $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                        $body
                        ::core::result::Result::Ok(())
                    };
                    let mut __rng = $crate::TestRng::for_case(__hash, __case as u64);
                    if let ::core::result::Result::Err(e) = __run(&mut __rng) {
                        panic!("proptest case {__case} of {} failed: {e:?}", stringify!($name));
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism_per_name() {
        let mut a = crate::TestRng::for_case(crate::hash_name("x"), 3);
        let mut b = crate::TestRng::for_case(crate::hash_name("x"), 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(x in 1usize..10, (a, b) in (0.0f64..1.0, 5u64..=6)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&a));
            prop_assert!(b == 5 || b == 6);
        }

        #[test]
        fn collections(v in collection::vec(0.0f64..0.5, 16), s in collection::btree_set(0usize..16, 1..5)) {
            prop_assert_eq!(v.len(), 16);
            prop_assert!(v.iter().all(|x| (0.0..0.5).contains(x)));
            prop_assert!(!s.is_empty() && s.len() < 5);
        }

        #[test]
        fn mapping(w in (2usize..6, 2usize..6).prop_map(|(r, c)| r * c)) {
            prop_assert!((4..=25).contains(&w));
        }

        #[test]
        fn assume_skips(n in 0u64..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
        }
    }
}
