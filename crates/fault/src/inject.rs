//! The fault classes and the one way to plant them.
//!
//! Reproduces the injection methodology of §3 and §5.1: one fault per trial,
//! written into the *output* matrix of a GEMM (a 0D origin), with the value
//! determined by the fault class. [`FaultKind::strike`] plants any class in
//! one row; the caller picks the row and the victim column.

use crate::bitflip::{flip_bit, is_near_inf, near_inf_flip};
use attn_tensor::float::NEAR_INF_THRESHOLD;
use std::fmt;

/// Mantissa bit a [`FaultKind::SubThreshold`] injection flips. Bit 10 of
/// the 23-bit mantissa changes the value by a relative `2^-13 ≈ 1.2e-4`,
/// below the guards' `5e-4` detection tolerance and far below any
/// magnitude threshold — yet it still changes the bit pattern, so exact
/// (bitwise/digest) guards see it.
pub const SUB_THRESHOLD_BIT: u32 = 10;

/// The extreme-error classes studied by the paper (with INF split by sign
/// so campaigns can reproduce the `∞*` mixed-sign patterns of Table 2),
/// plus the below-threshold and multi-cell classes the guarded-op
/// campaign stresses the two-tier screens with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `+∞` written into the victim element.
    Inf,
    /// `-∞` written into the victim element.
    NegInf,
    /// Quiet NaN written into the victim element.
    NaN,
    /// Exponent-MSB bit flip producing a huge-but-finite magnitude.
    NearInf,
    /// Mantissa flip ([`SUB_THRESHOLD_BIT`]): a perturbation far below
    /// every magnitude threshold — invisible to extreme-value detectors,
    /// caught only by exact (bitwise/digest) guards.
    SubThreshold,
    /// The whole victim row repeats the struck element's value (a stuck
    /// line driver replaying one word). Region fault.
    StuckRow,
    /// `len` consecutive cells of the victim row take exponent-MSB flips
    /// (a burst along a cache line). Region fault.
    Burst {
        /// Cells corrupted, starting at the victim column.
        len: usize,
    },
}

impl FaultKind {
    /// The three canonical kinds of the paper (positive INF representative).
    pub const STUDY_SET: [FaultKind; 3] = [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf];

    /// The four extreme classes the guarded ops must detect and correct
    /// at 100% (the `BENCH_faults` floor).
    pub const EXTREME_SET: [FaultKind; 4] = [
        FaultKind::Inf,
        FaultKind::NegInf,
        FaultKind::NaN,
        FaultKind::NearInf,
    ];

    /// Produce the faulty value from the victim's original value.
    ///
    /// For `NearInf` the bit-flip only yields an extreme value when the
    /// original magnitude is below 2; otherwise we synthesise a near-INF of
    /// the same sign (the paper's campaigns resample until the flip lands in
    /// an extreme-producing element; this is the deterministic equivalent).
    ///
    /// Region kinds degrade to their per-cell effect here (`StuckRow` is
    /// the identity on the struck element itself; `Burst` is the exponent
    /// flip) — the full region shape comes from [`FaultKind::strike`].
    pub fn apply(self, original: f32) -> f32 {
        match self {
            FaultKind::Inf => f32::INFINITY,
            FaultKind::NegInf => f32::NEG_INFINITY,
            FaultKind::NaN => f32::NAN,
            FaultKind::NearInf => {
                let flipped = near_inf_flip(original);
                if is_near_inf(flipped, NEAR_INF_THRESHOLD) {
                    flipped
                } else {
                    // |original| >= 2 or zero: bit-flip shrinks instead of
                    // exploding. Substitute a representative near-INF value.
                    1.0e31f32.copysign(if attn_tensor::float::exactly_zero(original) {
                        1.0
                    } else {
                        original
                    })
                }
            }
            FaultKind::SubThreshold => flip_bit(original, SUB_THRESHOLD_BIT),
            FaultKind::StuckRow => original,
            FaultKind::Burst { .. } => near_inf_flip(original),
        }
    }

    /// Plant this fault in `row` with `col` as the victim: single-cell
    /// kinds [`apply`](Self::apply) at `col`, `StuckRow` fills the row
    /// with `row[col]`, and `Burst { len }` flips `len` cells from `col`,
    /// clamped to the row's end.
    pub fn strike(self, row: &mut [f32], col: usize) {
        match self {
            FaultKind::StuckRow => {
                let stuck = row[col];
                row.fill(stuck);
            }
            FaultKind::Burst { len } => {
                let end = (col + len.max(1)).min(row.len());
                for v in &mut row[col..end] {
                    *v = near_inf_flip(*v);
                }
            }
            single => row[col] = single.apply(row[col]),
        }
    }

    /// Stable small integer for seed derivation and table ordering.
    /// (`as usize` casts stopped working once `Burst` gained a field.)
    /// `Burst` folds its length in above the variant space so different
    /// burst widths get distinct seeds.
    pub fn tag(self) -> u64 {
        match self {
            FaultKind::Inf => 0,
            FaultKind::NegInf => 1,
            FaultKind::NaN => 2,
            FaultKind::NearInf => 3,
            FaultKind::SubThreshold => 4,
            FaultKind::StuckRow => 5,
            FaultKind::Burst { len } => 6 + (len as u64) * 7,
        }
    }

    /// Short label used in report tables (matches the paper's glyphs
    /// where the paper has one).
    pub fn glyph(self) -> &'static str {
        match self {
            FaultKind::Inf => "INF",
            FaultKind::NegInf => "-INF",
            FaultKind::NaN => "NaN",
            FaultKind::NearInf => "nINF",
            FaultKind::SubThreshold => "sub",
            FaultKind::StuckRow => "stuck",
            FaultKind::Burst { .. } => "burst",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.glyph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_produces_expected_class() {
        assert_eq!(FaultKind::Inf.apply(0.3), f32::INFINITY);
        assert_eq!(FaultKind::NegInf.apply(0.3), f32::NEG_INFINITY);
        assert!(FaultKind::NaN.apply(0.3).is_nan());
        let n = FaultKind::NearInf.apply(0.3);
        assert!(n.is_finite() && n.abs() > NEAR_INF_THRESHOLD);
    }

    #[test]
    fn near_inf_fallback_for_large_and_zero_originals() {
        for &x in &[5.0f32, -8.0, 0.0, 100.0] {
            let n = FaultKind::NearInf.apply(x);
            assert!(n.is_finite() && n.abs() > NEAR_INF_THRESHOLD, "x={x}");
        }
        // Sign preserved for nonzero.
        assert!(FaultKind::NearInf.apply(-5.0) < 0.0);
    }

    #[test]
    fn display_glyphs() {
        assert_eq!(FaultKind::Inf.to_string(), "INF");
        assert_eq!(FaultKind::NaN.to_string(), "NaN");
        assert_eq!(FaultKind::NearInf.to_string(), "nINF");
        assert_eq!(FaultKind::SubThreshold.to_string(), "sub");
        assert_eq!(FaultKind::StuckRow.to_string(), "stuck");
        assert_eq!(FaultKind::Burst { len: 3 }.to_string(), "burst");
    }

    #[test]
    fn sub_threshold_changes_bits_but_stays_small() {
        let x = 0.73f32;
        let y = FaultKind::SubThreshold.apply(x);
        assert_ne!(x.to_bits(), y.to_bits());
        // Relative perturbation must sit below the 5e-4 guard tolerance.
        assert!(
            ((x - y) / x).abs() < 5.0e-4,
            "sub-threshold must stay sub-threshold"
        );
        // Involutive: flipping the same bit twice restores the value.
        assert_eq!(FaultKind::SubThreshold.apply(y).to_bits(), x.to_bits());
    }

    /// Cells of `a` and `b` whose bits differ.
    fn changed(a: &[f32], b: &[f32]) -> Vec<usize> {
        (0..a.len())
            .filter(|&j| a[j].to_bits() != b[j].to_bits())
            .collect()
    }

    #[test]
    fn single_cell_partition() {
        for kind in [FaultKind::Inf, FaultKind::NearInf, FaultKind::SubThreshold] {
            let before = [0.25f32, 0.75, 1.5, -2.0];
            let mut row = before;
            kind.strike(&mut row, 1);
            assert_eq!(changed(&row, &before), vec![1], "{kind}");
            assert_eq!(row[1].to_bits(), kind.apply(0.75).to_bits());
        }
        for kind in [FaultKind::StuckRow, FaultKind::Burst { len: 4 }] {
            let before = [0.25f32, 0.75, 1.5, -2.0];
            let mut row = before;
            kind.strike(&mut row, 0);
            assert!(changed(&row, &before).len() > 1, "{kind}");
        }
    }

    #[test]
    fn stuck_row_repeats_anchor_and_reverts() {
        let mut row: Vec<f32> = (4..8).map(|i| i as f32).collect();
        FaultKind::StuckRow.strike(&mut row, 2);
        assert_eq!(row, vec![6.0; 4]);
    }

    #[test]
    fn burst_corrupts_exactly_len_cells_and_reverts() {
        let before = [0.5f32; 8];
        let mut row = before;
        FaultKind::Burst { len: 3 }.strike(&mut row, 4);
        assert_eq!(changed(&row, &before), vec![4, 5, 6]);
        assert!(row[4].abs() > NEAR_INF_THRESHOLD);
        for v in &mut row[4..7] {
            *v = near_inf_flip(*v); // the flip is an involution
        }
        assert!(changed(&row, &before).is_empty());
    }

    #[test]
    fn burst_clamps_to_row_end() {
        let before = [0.5f32; 4];
        let mut row = before;
        FaultKind::Burst { len: 10 }.strike(&mut row, 2);
        assert_eq!(changed(&row, &before), vec![2, 3]);
    }
}
