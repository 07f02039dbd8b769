//! Offline drop-in subset of `proptest`.
//!
//! Implements the slice of the proptest surface this workspace uses:
//! the `proptest!` macro (with optional `#![proptest_config(..)]`),
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, `prop_oneof!`,
//! `Just`, `any::<T>()`, numeric-range and tuple strategies,
//! `prop_map`, `collection::vec`, and regex-literal string strategies
//! of the shape `"[class]{m,n}"`.
//!
//! Differences from upstream:
//! - **no shrinking** — a failing case reports its inputs but is not
//!   minimised;
//! - **deterministic RNG** — each test derives its seed from the test's
//!   full module path, so failures reproduce exactly across runs
//!   (override with `PROPTEST_SEED`);
//! - default case count is 64 (upstream: 256); override per block with
//!   `ProptestConfig::with_cases` or globally with `PROPTEST_CASES`.

pub mod test_runner {
    /// Outcome of a single property case body.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed — the whole test fails.
        Fail(String),
        /// `prop_assume!` rejected the inputs — resample.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
        /// Abort after this many consecutive `prop_assume!` rejections.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            Self {
                cases,
                max_global_rejects: 4096,
            }
        }
    }

    /// Deterministic xorshift64* generator seeded from the test name.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_test(name: &str) -> Self {
            if let Ok(seed) = std::env::var("PROPTEST_SEED") {
                if let Ok(seed) = seed.parse::<u64>() {
                    return Self { state: seed | 1 };
                }
            }
            // FNV-1a over the test name gives a stable per-test seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self { state: h | 1 }
        }

        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A generator of values of type `Value`.
    ///
    /// Unlike upstream there is no value tree / shrinking: `sample`
    /// produces a concrete value directly.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

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
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// `prop_oneof!` support: uniformly picks one of the boxed arms.
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].sample(rng)
        }
    }

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),+) => {
            $(impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            })+
        };
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    macro_rules! range_strategy_int {
        ($($t:ty),+) => {
            $(impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let r = rng.next_u64() as u128 % span;
                    (self.start as i128 + r as i128) as $t
                }
            })+
        };
    }
    range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($S:ident : $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A:0, B:1);
    tuple_strategy!(A:0, B:1, C:2);
    tuple_strategy!(A:0, B:1, C:2, D:3);
    tuple_strategy!(A:0, B:1, C:2, D:3, E:4);
    tuple_strategy!(A:0, B:1, C:2, D:3, E:4, F:5);
    tuple_strategy!(A:0, B:1, C:2, D:3, E:4, F:5, G:6);
    tuple_strategy!(A:0, B:1, C:2, D:3, E:4, F:5, G:6, H:7);
    tuple_strategy!(A:0, B:1, C:2, D:3, E:4, F:5, G:6, H:7, I:8);
    tuple_strategy!(A:0, B:1, C:2, D:3, E:4, F:5, G:6, H:7, I:8, J:9);

    /// Regex-literal string strategy for the subset `"[class]{m,n}"`
    /// (or `{m}`) that the workspace's tests use. The class supports
    /// `a-z` style ranges and literal characters; a trailing `-` is a
    /// literal, as in real regex classes.
    impl Strategy for &str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let (alphabet, min, max) = parse_class_pattern(self)
                .unwrap_or_else(|| panic!("unsupported string strategy pattern: {self:?}"));
            let len = if max > min {
                min + rng.below((max - min + 1) as u64) as usize
            } else {
                min
            };
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }
    }

    fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        if class.is_empty() {
            return None;
        }

        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (lo, hi) = (class[i], class[i + 2]);
                if lo > hi {
                    return None;
                }
                for c in lo..=hi {
                    alphabet.push(c);
                }
                i += 3;
            } else {
                alphabet.push(class[i]);
                i += 1;
            }
        }

        let quant = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
        let (min, max) = match quant.split_once(',') {
            Some((m, n)) => (m.trim().parse().ok()?, n.trim().parse().ok()?),
            None => {
                let m = quant.trim().parse().ok()?;
                (m, m)
            }
        };
        if max < min {
            return None;
        }
        Some((alphabet, min, max))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::test_runner::TestRng;

        #[test]
        fn class_patterns_parse() {
            let (alpha, lo, hi) = parse_class_pattern("[a-c_-]{1,4}").unwrap();
            assert_eq!(alpha, vec!['a', 'b', 'c', '_', '-']);
            assert_eq!((lo, hi), (1, 4));
            let (alpha, lo, hi) = parse_class_pattern("[ -~]{0,30}").unwrap();
            assert_eq!(alpha.len(), 95); // all printable ASCII
            assert_eq!((lo, hi), (0, 30));
        }

        #[test]
        fn ranges_respect_bounds() {
            let mut rng = TestRng::for_test("ranges_respect_bounds");
            for _ in 0..500 {
                let v = (-9i32..-1).sample(&mut rng);
                assert!((-9..-1).contains(&v));
                let f = (-1e6f64..1e6).sample(&mut rng);
                assert!((-1e6..1e6).contains(&f));
                let u = (16u64..256).sample(&mut rng);
                assert!((16..256).contains(&u));
            }
        }

        #[test]
        fn strings_match_pattern() {
            let mut rng = TestRng::for_test("strings_match_pattern");
            for _ in 0..200 {
                let s = "[a-z]{1,10}".sample(&mut rng);
                assert!((1..=10).contains(&s.len()));
                assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            }
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec(elem, min..max)`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg($cfg) $($rest)*);
    };
    // Attributes are captured as raw token trees (not `meta` fragments)
    // so the `@attrs` arms below can still match a literal `#[test]`.
    (@cfg($cfg:expr) $($(#[$($attr:tt)*])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $crate::proptest!(@attrs($cfg) [] [$(#[$($attr)*])*] fn $name($($pat in $strat),+) $body);
        )*
    };
    // The macro adds `#[test]` itself, so drop a caller-written one:
    // emitting both registers the test twice.
    (@attrs($cfg:expr) [$($kept:tt)*] [#[test] $($more:tt)*] $($item:tt)*) => {
        $crate::proptest!(@attrs($cfg) [$($kept)*] [$($more)*] $($item)*);
    };
    (@attrs($cfg:expr) [$($kept:tt)*] [#[$($attr:tt)*] $($more:tt)*] $($item:tt)*) => {
        $crate::proptest!(@attrs($cfg) [$($kept)* #[$($attr)*]] [$($more)*] $($item)*);
    };
    (@attrs($cfg:expr) [$($kept:tt)*] [] fn $name:ident($($pat:pat in $strat:expr),+) $body:block) => {
        $($kept)*
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < config.cases {
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                match result {
                    Ok(()) => passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        if rejected > config.max_global_rejects {
                            panic!(
                                "proptest {}: too many prop_assume! rejections ({rejected})",
                                stringify!($name),
                            );
                        }
                    }
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed after {passed} passing cases: {msg}",
                            stringify!($name),
                        );
                    }
                }
            }
        }
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {l:?}\n right: {r:?}",
            stringify!($left),
            stringify!($right),
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {l:?}",
            stringify!($left),
            stringify!($right),
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (u32, u32)> {
        (0u32..10, 10u32..20)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Tuple + map strategies compose.
        fn pair_ordering((a, b) in arb_pair()) {
            prop_assert!(a < b, "a={a} b={b}");
        }

        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), 5u8..8]) {
            prop_assert!(v == 1 || v == 2 || (5..8).contains(&v));
        }

        fn assume_rejects_cleanly(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        fn vec_strategy_sizes(v in crate::collection::vec(0i32..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_test("same-name");
        let mut b = TestRng::for_test("same-name");
        let sa: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_eq!(sa, sb);
    }
}
