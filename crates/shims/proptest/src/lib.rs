//! Vendored stand-in for `proptest`, implementing the subset this workspace
//! uses: the `proptest!` macro, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, range and tuple strategies, `prop::collection::vec`,
//! `any::<bool>()`, `.prop_map`, and `.prop_filter`.
//!
//! No shrinking: a failing case reports its inputs via the assertion message
//! and the deterministic case seed, which is enough to reproduce (the suite
//! derives case seeds from the test name, so reruns fail identically).

/// Deterministic per-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed or a filter rejected the inputs; try new inputs.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured (matching what the
/// workspace's suites configure).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
    /// Upper bound on rejected cases before the runner gives up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_global_rejects: 65_536 }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    type Value;

    /// Produce one value, or `None` when a filter rejected the attempt.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _reason: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(&self.f)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                Some(self.start + rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> Option<f64> {
        assert!(self.start < self.end, "empty strategy range");
        Some(self.start + (self.end - self.start) * rng.unit_f64())
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> Option<f32> {
        assert!(self.start < self.end, "empty strategy range");
        Some(self.start + (self.end - self.start) * rng.unit_f64() as f32)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Some(($($name.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Types with a canonical "any value" strategy (only what the suite needs).
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> Option<bool> {
        Some(rng.next_u64() & 1 == 1)
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

pub struct AnyU64;

impl Strategy for AnyU64 {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> Option<u64> {
        Some(rng.next_u64())
    }
}

impl Arbitrary for u64 {
    type Strategy = AnyU64;
    fn arbitrary() -> AnyU64 {
        AnyU64
    }
}

/// `any::<T>()` — canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec`]: a fixed size or a half-open range.
    #[derive(Debug, Clone, Copy)]
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
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.generate(rng)?);
            }
            Some(out)
        }
    }
}

/// Drive one property: `cases` accepted runs, retrying rejected inputs.
pub fn run_property<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    // Stable seed from the test name so failures reproduce across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let mut attempt = 0u64;
    while accepted < config.cases {
        let case_seed = h ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = TestRng::new(case_seed);
        attempt += 1;
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "proptest '{name}': too many rejected cases ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed at case {accepted} (seed {case_seed:#x}): {msg}");
            }
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };

    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_body {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                $crate::run_property(&__config, stringify!($name), |__rng| {
                    $(
                        let $arg = match $crate::Strategy::generate(&($strat), __rng) {
                            Some(v) => v,
                            None => return Err($crate::TestCaseError::Reject),
                        };
                    )+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a),
                stringify!($b),
                a
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 0.5f64..2.0, n in 1usize..10) {
            prop_assert!((0.5..2.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn vec_and_filter_compose(
            v in prop::collection::vec((0.1f64..1.0, 1u64..5), 2..6)
                .prop_filter("nonempty", |v| !v.is_empty())
                .prop_map(|v| v.len()),
        ) {
            prop_assert!((2..6).contains(&v));
        }

        #[test]
        fn assume_rejects(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest 'always_fails' failed")]
    fn failing_property_panics() {
        crate::run_property(
            &ProptestConfig { cases: 1, ..Default::default() },
            "always_fails",
            |_| Err(crate::TestCaseError::fail("boom".into())),
        );
    }
}
