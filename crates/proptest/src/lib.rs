//! Offline stand-in for `proptest`.
//!
//! The workspace builds without crates.io access, so this crate re-implements
//! the slice of proptest the test suite uses: the [`strategy::Strategy`]
//! trait (with `prop_map` and boxing), range / tuple / `any` / `Just`
//! strategies, `prop::collection::vec`, the `prop_oneof!` union, and the
//! `proptest!` test macro driven by [`test_runner::ProptestConfig`].
//!
//! Inputs are generated from a deterministic per-test RNG (seeded from the
//! test name), so failures are reproducible run-over-run. There is no
//! shrinking: a failing case panics with the generated inputs' `Debug`
//! representation (every strategy value in this workspace is `Debug`).
//!
//! `PROPTEST_CASES=n` (upstream's name) runs every property `n` times,
//! whatever its `ProptestConfig` asks for: the way to give one suite a long
//! run (`PROPTEST_CASES=20000 cargo test -p icash-workloads lanes`) without
//! editing it. Unset, each property runs its configured count.

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// What `use proptest::prelude::*;` brings into scope.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec(...)`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Uniform choice between heterogeneous strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the upstream shape used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 0..16)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $config:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
     )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let mut rng =
                    $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let values = ($($crate::strategy::Strategy::generate(&$strategy, &mut rng)),+ ,);
                    let debug_repr = format!("{values:?}");
                    let ($($arg),+ ,) = values;
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                    if let Err(panic) = result {
                        eprintln!(
                            "proptest case {case}/{} failed for {}\n  inputs: {}",
                            config.cases,
                            stringify!($name),
                            debug_repr,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}
