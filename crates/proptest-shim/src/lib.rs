//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace vendors
//! the subset of the proptest API its property tests use: the
//! [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`, range and
//! tuple strategies, [`collection::vec`], `any::<bool/u64>()`, [`Just`],
//! `prop_oneof!`, a tiny `[class]{m,n}` regex string strategy, and the
//! `proptest!`/`prop_assert*` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case reports the panic message only;
//! * **deterministic sampling** — each test's RNG is seeded from a hash of
//!   the test name, so runs are reproducible without `proptest-regressions`
//!   files (existing regression files are ignored);
//! * default case count is 64 (overridable via `ProptestConfig::with_cases`).
//!
//! [`Just`]: strategy::Just

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// String strategies (`impl Strategy for &str`) live directly on the
/// pattern; this module only hosts the generator helper.
pub mod string;

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;
    use std::ops::Range;

    /// Anything usable as the size parameter of [`vec()`].
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            if self.start >= self.end {
                self.start
            } else {
                rng.random_range(self.start..self.end)
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    /// A `Vec` strategy with the given element strategy and size (an exact
    /// `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Values with a canonical strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy for this type.
    type Strategy: strategy::Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy of `T` — uniform over the whole domain.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

macro_rules! impl_arbitrary_uniform {
    ($($t:ty => $gen:expr),* $(,)?) => {$(
        impl Arbitrary for $t {
            type Strategy = strategy::FnStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                strategy::FnStrategy::new($gen)
            }
        }
    )*};
}

impl_arbitrary_uniform! {
    bool => |rng| rand::RngCore::next_u64(rng) & 1 == 1,
    u8 => |rng| rand::RngCore::next_u64(rng) as u8,
    u16 => |rng| rand::RngCore::next_u64(rng) as u16,
    u32 => |rng| rand::RngCore::next_u64(rng) as u32,
    u64 => rand::RngCore::next_u64,
    usize => |rng| rand::RngCore::next_u64(rng) as usize,
}

/// The glob import every property test starts with.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r),
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(*l == *r, $($fmt)*),
        }
    }};
}

/// Fails the current property case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(*l != *r, "assertion failed: {:?} == {:?}", l, r),
        }
    }};
}

/// Picks uniformly between several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::OneOf::wrap($strategy)),+])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $(
        $(#[$meta:meta])+
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $(let $pat = $crate::strategy::Strategy::generate(&$strat, &mut rng);)*
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("property '{}' failed at case {}/{}: {}", stringify!($name), case + 1, config.cases, e);
                }
            }
        }
    )*};
}
