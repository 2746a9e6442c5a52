//! Offline mini-`proptest`.
//!
//! The build container cannot reach crates.io, so the real proptest is
//! unavailable. This crate reimplements the (small) subset of its API the
//! workspace tests use — `proptest!`, `prop_assert!`/`prop_assert_eq!`,
//! range and `any::<T>()` strategies, tuples, and
//! `proptest::collection::vec` — on top of a deterministic splitmix64
//! generator. Semantics kept from the original:
//!
//! * each `#[test]` fn inside `proptest!` runs `ProptestConfig::cases`
//!   generated cases;
//! * `prop_assert*` failures abort the case with a message (no panic
//!   unwinding mid-case) and fail the test with the case number and seed;
//! * generation is fully deterministic per (test name, case index), so a
//!   failure reproduces without any persistence file.
//!
//! Shrinking is intentionally omitted: failing inputs are printed via
//! `Debug` instead. Swapping back to real proptest requires no changes in
//! test code for the constructs above.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A failed property-test case: the message carried by `prop_assert!`.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// Result type property-test bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured by the shim.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic value source handed to strategies (splitmix64).
#[derive(Clone, Debug)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Seed a generator; identical seeds give identical value streams.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is irrelevant for test-case generation.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator; the shim's analogue of `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;
    /// Produce one value.
    fn generate(&self, gen: &mut Gen) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + gen.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64) - (lo as u64) + 1;
                lo + gen.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, gen: &mut Gen) -> f64 {
        self.start + (self.end - self.start) * gen.unit_f64()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                ($(self.$idx.generate(gen),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3)
);

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary: Sized + Debug {
    /// Draw an arbitrary value.
    fn arbitrary(gen: &mut Gen) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(gen: &mut Gen) -> bool {
        gen.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(gen: &mut Gen) -> $t {
                gen.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        T::arbitrary(gen)
    }
}

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Gen, Strategy};
    use std::ops::Range;

    /// Length specification accepted by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `elem` values.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, gen: &mut Gen) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + gen.below(span) as usize;
            (0..len).map(|_| self.elem.generate(gen)).collect()
        }
    }
}

/// Everything a `use proptest::prelude::*;` test file expects.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

/// FNV-1a hash of the test name: the per-test base seed.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "prop_assert_eq failed: {:?} != {:?} ({} vs {})",
            l,
            r,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "prop_assert_ne failed: both {:?} ({} vs {})",
            l,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Declare property tests; mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal: expand each `fn name(arg in strategy, …) { … }` item.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let base = $crate::seed_from_name(stringify!($name));
            for case in 0..config.cases {
                let mut gen =
                    $crate::Gen::new(base ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                $(let $arg = $crate::Strategy::generate(&($strat), &mut gen);)+
                // Render inputs before the body runs: the body may move
                // the generated values.
                let inputs =
                    format!(concat!($("\n  ", stringify!($arg), " = {:?}"),+), $(&$arg),+);
                let result: $crate::TestCaseResult = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "property {} failed at case {}/{}: {}\ninputs:{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e.0,
                        inputs,
                    );
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}
