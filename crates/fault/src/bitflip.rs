//! Raw IEEE-754 bit manipulation.
//!
//! A single-event upset in a register or ALU datapath manifests as one
//! flipped bit of the binary32 representation. Which field the bit lands in
//! decides the outcome (§2.2 of the paper):
//!
//! * exponent MSB (bit 30) set on a typical activation (|x| < 2) multiplies
//!   the magnitude by 2¹²⁸-ish → **near-INF**;
//! * all-ones exponent with zero mantissa → **INF**;
//! * all-ones exponent with non-zero mantissa → **NaN**;
//! * sign/mantissa flips → benign magnitude perturbations (out of scope:
//!   prior work shows training absorbs them).

/// Flip bit `bit` (0 = LSB of the mantissa, 31 = sign) of an `f32`.
///
/// # Panics
/// Panics if `bit > 31`.
pub fn flip_bit(x: f32, bit: u32) -> f32 {
    assert!(bit < 32, "binary32 has bits 0..=31");
    f32::from_bits(x.to_bits() ^ (1u32 << bit))
}

/// The paper's near-INF injection: flip the most significant exponent bit
/// (bit 30).
///
/// For the activations that dominate attention (|x| < 1, biased exponent
/// ≤ 126, bit 30 clear) this *sets* the bit, scaling the value by 2¹²⁸⁻ᵏ
/// into the ~1e31…1.7e38 range while staying finite. Values in [1, 2) flip
/// straight to INF (x = 1.0 exactly) or NaN (non-zero mantissa) — a
/// bit-flip-induced *type transition*. For |x| ≥ 2 the flip instead
/// collapses the value toward zero; campaign code treats that as benign and
/// substitutes a representative near-INF, mirroring the paper's focus on
/// faults that *do* produce extreme values.
pub fn near_inf_flip(x: f32) -> f32 {
    flip_bit(x, 30)
}

/// True when `x` is finite but its magnitude exceeds `threshold`
/// (the "near-INF" predicate).
pub fn is_near_inf(x: f32, threshold: f32) -> bool {
    x.is_finite() && x.abs() > threshold
}

/// Exponent field (biased) of a binary32.
pub fn exponent_field(x: f32) -> u32 {
    (x.to_bits() >> 23) & 0xff
}

/// Mantissa field of a binary32.
pub fn mantissa_field(x: f32) -> u32 {
    x.to_bits() & 0x7f_ffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_tensor::float::NEAR_INF_THRESHOLD;

    #[test]
    fn flip_sign_bit_negates() {
        assert_eq!(flip_bit(1.5, 31), -1.5);
        assert_eq!(flip_bit(-2.0, 31), 2.0);
    }

    #[test]
    fn flip_is_involutive() {
        for bit in 0..32 {
            let x = 0.372_912_5f32;
            assert_eq!(flip_bit(flip_bit(x, bit), bit).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn near_inf_flip_on_small_activation_is_huge_but_finite() {
        for &x in &[0.01f32, 0.5, 0.9, 0.999, -0.3, -0.75] {
            let y = near_inf_flip(x);
            assert!(y.is_finite(), "x={x} -> {y}");
            assert!(
                is_near_inf(y, NEAR_INF_THRESHOLD),
                "x={x} -> {y} not near-INF"
            );
            // Sign is preserved: only the exponent changed.
            assert_eq!(x.is_sign_negative(), y.is_sign_negative());
        }
    }

    #[test]
    fn near_inf_flip_type_transitions_in_unit_band() {
        // Biased exponent 127 (|x| in [1,2)): the flip lands on the all-ones
        // exponent — INF for a zero mantissa, NaN otherwise. This is the
        // bit-level origin of the paper's "one type of exception can transit
        // to another" observation.
        assert_eq!(near_inf_flip(1.0), f32::INFINITY);
        assert_eq!(near_inf_flip(-1.0), f32::NEG_INFINITY);
        assert!(near_inf_flip(1.5).is_nan());
    }

    #[test]
    fn near_inf_flip_on_large_value_collapses() {
        // |x| >= 2 has bit 30 set; clearing it shrinks the value (benign).
        let y = near_inf_flip(4.0);
        assert!(y.abs() < 1.0);
    }

    #[test]
    fn exponent_all_ones_is_inf_or_nan() {
        assert_eq!(exponent_field(f32::INFINITY), 0xff);
        assert_eq!(mantissa_field(f32::INFINITY), 0);
        assert_eq!(exponent_field(f32::NAN), 0xff);
        assert_ne!(mantissa_field(f32::NAN), 0);
    }

    #[test]
    fn is_near_inf_rejects_inf_nan_and_small() {
        assert!(!is_near_inf(f32::INFINITY, NEAR_INF_THRESHOLD));
        assert!(!is_near_inf(f32::NAN, NEAR_INF_THRESHOLD));
        assert!(!is_near_inf(1e9, NEAR_INF_THRESHOLD));
        assert!(is_near_inf(1e11, NEAR_INF_THRESHOLD));
        assert!(is_near_inf(-1e12, NEAR_INF_THRESHOLD));
    }
}
