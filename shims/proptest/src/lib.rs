//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no crates.io access (see `shims/README.md`).
//! This shim keeps the `proptest! { #[test] fn f(x in strategy, ...) }`
//! surface source-compatible: each property runs [`NUM_CASES`] cases with
//! inputs drawn from a per-test deterministically seeded generator, and
//! `prop_assert*` failures report the failing case. There is no shrinking —
//! a failing case prints its index and message only.
//!
//! Strategies provided: numeric ranges, tuples of strategies (arity ≤ 6),
//! `prop::collection::vec` with fixed or ranged sizes, and `Just`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases run per property (the real proptest default is 256; 64 keeps the
/// whole-pipeline properties in this workspace fast).
pub const NUM_CASES: usize = 64;

/// Strategy machinery (subset of `proptest::strategy`).
pub mod strategy {
    use super::TestRng;
    use rand::Rng;

    /// A generator of values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// A strategy producing one constant value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u64, u32, i64, i32);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
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

    pub use super::TestRng as StrategyRng;
}

/// Deterministic per-test generator.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from a test name so every property has its own stable stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self(StdRng::seed_from_u64(h))
    }
}

impl Rng for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// `prop::` module namespace, as re-exported by the real prelude.
pub mod prop {
    /// Collection strategies (subset of `proptest::collection`).
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::TestRng;
        use rand::Rng;

        /// Element-count specification for [`vec()`].
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n }
            }
        }

        impl From<::std::ops::Range<usize>> for SizeRange {
            fn from(r: ::std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                Self { lo: r.start, hi: r.end - 1 }
            }
        }

        impl From<::std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: ::std::ops::RangeInclusive<usize>) -> Self {
                Self { lo: *r.start(), hi: *r.end() }
            }
        }

        /// A strategy for `Vec`s of values from `element`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// Creates a `Vec` strategy with the given element strategy and
        /// size specification (fixed `usize` or a range).
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = rng.gen_range(self.size.lo..=self.size.hi);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Everything a property-based test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`NUM_CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng = $crate::TestRng::deterministic(stringify!($name));
                for __case in 0..$crate::NUM_CASES {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    let __result: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!("property {} failed at case {}: {}", stringify!($name), __case, e);
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside `proptest!`, failing the current case with a
/// formatted message instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
}

/// Asserts inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}
