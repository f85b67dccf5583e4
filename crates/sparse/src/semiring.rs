//! Semirings: the algebra TS-SpGEMM is generic over.
//!
//! The paper runs the same distributed schedule under different semirings —
//! ordinary `(+,×)` arithmetic for numeric SpGEMM, `(∧,∨)` for multi-source
//! BFS reachability, and `(sel2nd, min)` when BFS parents are wanted (§IV-A).
//! A semiring here is a zero-sized dispatch type: kernels are monomorphised
//! per semiring, so the inner loops pay nothing for the abstraction.

/// A semiring over scalar type `T` with `add` (the ⊕ used to combine partial
/// products) and `mul` (the ⊗ applied to matched entries).
///
/// `zero()` must be the identity of `add` and annihilating for `mul`; entries
/// for which [`Semiring::is_zero`] holds are dropped from sparse outputs,
/// which keeps BFS frontiers and masked products properly sparse.
///
/// **Identity law.** `add(zero(), x)` must equal `x` bit for bit for every
/// `x` that `is_zero` keeps; a NaN need only stay a NaN, since Rust leaves
/// the sign and payload of a NaN result unspecified. The dense SPA ([`crate::accum::Spa`]) keeps
/// every slot at `zero()` between rows and folds each contribution in with
/// `add`, with no first-touch branch, so this law is what makes a row's
/// first contribution come out unchanged. The one allowed exception is NaN
/// under an `f64::min` ⊕ ([`MinPlusF64`], [`Sel2ndMinF64`]): `min` ignores
/// NaN, so `add(zero(), NaN)` is `zero()`, and an entry whose only
/// contributions are NaN is dropped.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// The scalar type stored in matrices multiplied under this semiring.
    type T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static;

    /// Additive identity (⊕-identity, ⊗-annihilator).
    fn zero() -> Self::T;
    /// ⊕: combine two partial results for the same output coordinate.
    fn add(a: Self::T, b: Self::T) -> Self::T;
    /// ⊗: combine a matched `A` entry with a `B` entry.
    fn mul(a: Self::T, b: Self::T) -> Self::T;

    /// Whether a value is (semantically) zero and may be dropped.
    #[inline]
    fn is_zero(v: &Self::T) -> bool {
        *v == Self::zero()
    }

    /// `Some(one)` for the boolean semiring, whose every value is `zero()`
    /// or `one`, with `⊗` the `∧` and `⊕` the `∨` of one bit; `None` for
    /// every other semiring. A kernel may then multiply rows of one bit
    /// per column (see [`BitAccum`](crate::accum::BitAccum)), which drains
    /// the bits the per-entry loop would.
    const BIT_ONE: Option<Self::T> = None;
}

/// The usual arithmetic semiring `(+, ×)` over `f64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlusTimesF64;

impl Semiring for PlusTimesF64 {
    type T = f64;

    #[inline]
    fn zero() -> f64 {
        0.0
    }
    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// The boolean semiring `(∨, ∧)` used by multi-source BFS (Alg. 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoolAndOr;

impl Semiring for BoolAndOr {
    type T = bool;

    const BIT_ONE: Option<bool> = Some(true);

    #[inline]
    fn zero() -> bool {
        false
    }
    #[inline]
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
    #[inline]
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
}

/// The tropical semiring `(min, +)` over `f64`; zero is `+∞`.
///
/// Useful for multi-source shortest-path sweeps, one of the "future
/// extensions" the TS-SpGEMM schedule supports unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlusF64;

impl Semiring for MinPlusF64 {
    type T = f64;

    #[inline]
    fn zero() -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// The `(min, sel2nd)` semiring from the GraphBLAS BFS-tree formulation:
/// `mul` selects the `B`-side value (the candidate parent id carried in the
/// frontier), `add` keeps the minimum candidate. Zero is `+∞`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sel2ndMinF64;

impl Semiring for Sel2ndMinF64 {
    type T = f64;

    #[inline]
    fn zero() -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline]
    fn mul(_a: f64, b: f64) -> f64 {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monoid_laws<S: Semiring>(vals: &[S::T]) {
        for &a in vals {
            assert_eq!(S::add(a, S::zero()), a, "zero must be ⊕-identity");
            assert_eq!(S::add(S::zero(), a), a, "zero must be ⊕-identity");
            assert!(
                S::is_zero(&S::mul(a, S::zero())),
                "zero must annihilate under ⊗"
            );
            for &b in vals {
                assert_eq!(S::add(a, b), S::add(b, a), "⊕ must be commutative");
                for &c in vals {
                    assert_eq!(
                        S::add(S::add(a, b), c),
                        S::add(a, S::add(b, c)),
                        "⊕ must be associative"
                    );
                }
            }
        }
    }

    /// Finite values, signed zeros, infinities, subnormals and NaN.
    const SPECIALS: [f64; 14] = [
        0.0,
        -0.0,
        1.0,
        -2.5,
        1e300,
        -1e-300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 1024.0,
        5e-324,
        -5e-324,
        f64::NAN,
        -f64::NAN,
    ];

    /// The identity law over [`SPECIALS`]: `zero ⊕ x` has `x`'s bits when
    /// `x` is kept (a NaN stays a NaN of unspecified sign and payload); a
    /// dropped `x` may fold to any zero (`0.0 + -0.0` is `+0.0`).
    /// `nan_is_absorbed` marks an `f64::min` ⊕, which maps NaN to zero.
    fn check_identity_law<S: Semiring<T = f64>>(nan_is_absorbed: bool) {
        for x in SPECIALS {
            let y = S::add(S::zero(), x);
            if S::is_zero(&x) || (x.is_nan() && nan_is_absorbed) {
                assert!(S::is_zero(&y), "zero ⊕ {x:?} = {y:?} must be dropped");
            } else if x.is_nan() {
                assert!(y.is_nan(), "zero ⊕ NaN = {y:?}");
            } else {
                assert_eq!(y.to_bits(), x.to_bits(), "zero ⊕ {x:?} = {y:?}");
            }
        }
    }

    #[test]
    fn identity_law_holds_bit_for_bit() {
        check_identity_law::<PlusTimesF64>(false);
        check_identity_law::<MinPlusF64>(true);
        check_identity_law::<Sel2ndMinF64>(true);
        for x in [false, true] {
            assert_eq!(BoolAndOr::add(BoolAndOr::zero(), x), x);
        }
    }

    #[test]
    fn plus_times_laws() {
        check_monoid_laws::<PlusTimesF64>(&[0.0, 1.0, 2.5, -3.0]);
        assert_eq!(PlusTimesF64::mul(2.0, 3.0), 6.0);
    }

    #[test]
    fn bool_and_or_laws() {
        check_monoid_laws::<BoolAndOr>(&[true, false]);
        assert!(BoolAndOr::mul(true, true));
        assert!(!BoolAndOr::mul(true, false));
        assert!(BoolAndOr::add(true, false));
    }

    #[test]
    fn min_plus_laws() {
        check_monoid_laws::<MinPlusF64>(&[0.0, 1.0, 5.0, f64::INFINITY]);
        assert_eq!(MinPlusF64::mul(2.0, 3.0), 5.0);
        assert_eq!(MinPlusF64::add(2.0, 3.0), 2.0);
        assert!(MinPlusF64::is_zero(&f64::INFINITY));
    }

    #[test]
    fn sel2nd_min_selects_frontier_value() {
        // mul carries the B-side (frontier) value through the matched edge.
        assert_eq!(Sel2ndMinF64::mul(42.0, 7.0), 7.0);
        // add keeps the smallest parent candidate.
        assert_eq!(Sel2ndMinF64::add(7.0, 3.0), 3.0);
        assert!(Sel2ndMinF64::is_zero(&f64::INFINITY));
    }

    #[test]
    fn distributivity_spot_checks() {
        // a⊗(b⊕c) == (a⊗b)⊕(a⊗c) for the numeric semirings on sample values.
        let (a, b, c) = (2.0, 3.0, 4.0);
        assert_eq!(
            PlusTimesF64::mul(a, PlusTimesF64::add(b, c)),
            PlusTimesF64::add(PlusTimesF64::mul(a, b), PlusTimesF64::mul(a, c))
        );
        assert_eq!(
            MinPlusF64::mul(a, MinPlusF64::add(b, c)),
            MinPlusF64::add(MinPlusF64::mul(a, b), MinPlusF64::mul(a, c))
        );
    }
}
