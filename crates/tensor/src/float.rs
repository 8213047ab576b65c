//! Named exact-float comparisons.
//!
//! A raw `x == 0.0` in the middle of numeric code is ambiguous: is it a
//! tolerance bug, or a deliberate sentinel/short-circuit test? These
//! helpers give the deliberate cases a name — "this value is *bit-for-bit*
//! the result of summing nothing / an all-zero row / a disabled gate".
//! They are a naming convention, not a gate: clippy's `float_cmp`
//! (denied in every library crate) rejects float-to-float and non-zero
//! constant comparisons, but exempts `x == 0.0`, which is IEEE-exact.
//!
//! All helpers treat `+0.0` and `-0.0` as zero (IEEE-754 `==` semantics,
//! which is what the masked-row and gate-off contracts want) and are
//! `false` for NaN.

/// `T_near-INF` (paper §4.2): a finite value whose magnitude exceeds this
/// counts as near-INF — in EEC-ABFT's suspect census and in the fault
/// taxonomy alike.
pub const NEAR_INF_THRESHOLD: f32 = 1e10;

/// True when `x` is exactly `±0.0` (never true for NaN).
///
/// Use for sentinel tests where zero is produced structurally — an empty
/// reduction, a fully masked row, a gate frequency of literal `0.0` —
/// not for "small enough" tolerance checks.
#[inline]
#[must_use]
pub fn exactly_zero(x: f32) -> bool {
    x == 0.0
}

/// True when every element of `xs` is exactly `±0.0`.
///
/// The vectorised form of [`exactly_zero`]; used for "was this row fully
/// masked / never written" checks.
#[inline]
#[must_use]
pub fn all_exactly_zero(xs: &[f32]) -> bool {
    xs.iter().copied().all(exactly_zero)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_signs_and_nan() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(f32::NAN));
        assert!(!exactly_zero(f32::MIN_POSITIVE));
        assert!(!exactly_zero(1e-45)); // smallest subnormal
    }

    #[test]
    fn slices() {
        assert!(all_exactly_zero(&[]));
        assert!(all_exactly_zero(&[0.0, -0.0, 0.0]));
        assert!(!all_exactly_zero(&[0.0, 1.0e-30]));
        assert!(!all_exactly_zero(&[f32::NAN]));
    }
}
