//! Offline stand-in for [`proptest`](https://docs.rs/proptest).
//!
//! Provides the subset the workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), `any::<T>()`,
//! numeric range strategies, `collection::vec`, `option::of`, tuple
//! strategies, a `.{m,n}`-style string pattern strategy, and the
//! `prop_assert!`/`prop_assert_eq!` macros. The real crate cannot be
//! fetched in the build container.
//!
//! Deliberate simplifications: no shrinking (a failing case reports its
//! inputs via the assertion message instead of minimising them), and
//! generation is deterministic per test name (seeded from a hash of the
//! test function's name) so failures reproduce exactly across runs.

pub mod strategy {
    use crate::test_runner::Rng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut Rng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),*) => {
            $(
                impl Strategy for Range<$ty> {
                    type Value = $ty;
                    fn sample(&self, rng: &mut Rng) -> $ty {
                        assert!(self.start < self.end, "empty range strategy");
                        let span = (self.end as i128) - (self.start as i128);
                        let off = (rng.next_u64() as i128).rem_euclid(span);
                        (self.start as i128 + off) as $ty
                    }
                }
            )*
        };
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($ty:ty),*) => {
            $(
                impl Strategy for Range<$ty> {
                    type Value = $ty;
                    fn sample(&self, rng: &mut Rng) -> $ty {
                        self.start + (rng.next_unit_f64() as $ty) * (self.end - self.start)
                    }
                }
            )*
        };
    }

    float_range_strategy!(f32, f64);

    /// Strategy yielding arbitrary values of `T`; see [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Types with a default "anything goes" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut Rng) -> Self;
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arbitrary_from_bits {
        ($($ty:ty => $conv:expr,)*) => {
            $(
                impl Arbitrary for $ty {
                    fn arbitrary(rng: &mut Rng) -> $ty {
                        let bits = rng.next_u64();
                        #[allow(clippy::redundant_closure_call)]
                        ($conv)(bits)
                    }
                }
            )*
        };
    }

    arbitrary_from_bits! {
        u8 => |b| b as u8,
        u16 => |b| b as u16,
        u32 => |b| b as u32,
        u64 => |b| b,
        usize => |b| b as usize,
        i8 => |b| b as i8,
        i16 => |b| b as i16,
        i32 => |b| b as i32,
        i64 => |b| b as i64,
        isize => |b| b as isize,
        bool => |b| b & 1 == 1,
        // Full bit patterns on purpose: serialization roundtrips compare
        // `to_bits`, so NaN payloads are legitimate inputs.
        f64 => f64::from_bits,
        f32 => |b| f32::from_bits(b as u32),
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut Rng) -> char {
            loop {
                if let Some(c) = char::from_u32(rng.next_u64() as u32 % 0x11_0000) {
                    return c;
                }
            }
        }
    }

    /// String patterns double as strategies; only the `.{m,n}` form the
    /// workspace uses is interpreted, anything else falls back to short
    /// strings. Mixed ASCII/multibyte alphabet exercises UTF-8 handling.
    impl Strategy for &str {
        type Value = String;
        fn sample(&self, rng: &mut Rng) -> String {
            const ALPHABET: &[char] = &[
                'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '.', '"', '\\', '\n',
                'é', 'ß', 'λ', '中', '🦀',
            ];
            let (min, max) = parse_repeat_pattern(self).unwrap_or((0, 16));
            let len = min + (rng.next_u64() as usize) % (max - min + 1);
            (0..len)
                .map(|_| ALPHABET[rng.next_u64() as usize % ALPHABET.len()])
                .collect()
        }
    }

    /// Parse `.{m,n}` into `(m, n)`.
    fn parse_repeat_pattern(pat: &str) -> Option<(usize, usize)> {
        let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = body.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    macro_rules! tuple_strategy {
        ($(($($n:tt $s:ident),+))*) => {
            $(
                impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                    type Value = ($($s::Value,)+);
                    fn sample(&self, rng: &mut Rng) -> Self::Value {
                        ($(self.$n.sample(rng),)+)
                    }
                }
            )*
        };
    }

    tuple_strategy! {
        (0 S0, 1 S1)
        (0 S0, 1 S1, 2 S2)
        (0 S0, 1 S1, 2 S2, 3 S3)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::Rng;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: an exact `usize` or a
    /// half-open `Range<usize>`.
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_exclusive: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max_exclusive: r.end }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            let span = self.size.max_exclusive - self.size.min;
            let len = self.size.min + (rng.next_u64() as usize) % span.max(1);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::Rng;

    pub struct OptionStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Option<S::Value> {
            // Roughly one None in four keeps both arms exercised.
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }
}

pub mod test_runner {
    /// SplitMix64: tiny, full-period, and plenty for test-input generation.
    pub struct Rng {
        state: u64,
    }

    impl Rng {
        /// Seed from the test name so every run of a given test replays the
        /// same case sequence.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Rng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Per-invocation knobs; only the case count is configurable here.
    #[derive(Clone)]
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
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
/// Each function body runs `cases` times with fresh deterministic inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::Rng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Assertion macro mirroring `proptest::prop_assert!`; panics (failing the
/// surrounding `#[test]`) instead of returning a `TestCaseError`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..17, y in -2.5f64..2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y), "{y} out of range");
        }

        #[test]
        fn vec_sizes_respect_spec(
            v in crate::collection::vec(any::<u8>(), 2..5),
            w in crate::collection::vec(any::<u32>(), 8),
            s in ".{0,16}",
            o in crate::option::of(any::<i64>()),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert_eq!(w.len(), 8);
            prop_assert!(s.chars().count() <= 16);
            let _ = o;
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::test_runner::Rng::deterministic("x");
        let mut b = crate::test_runner::Rng::deterministic("x");
        let mut c = crate::test_runner::Rng::deterministic("y");
        let (a0, b0, c0) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(a0, b0);
        assert_ne!(a0, c0);
    }
}
