//! Campaign-facing fault injector.
//!
//! Reproduces the injection methodology of §3 and §5.1: one fault per trial,
//! written into the *output* matrix of a GEMM (a 0D origin) at a uniformly
//! random position, with the value determined by the fault class.

use crate::bitflip::{flip_bit, is_near_inf, near_inf_flip};
use crate::NEAR_INF_THRESHOLD;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
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
    /// line driver replaying one word). Region fault: use
    /// [`FaultInjector::inject_region_at`].
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

    /// Does this kind corrupt exactly one cell? Single-cell kinds work
    /// through [`FaultInjector::inject_at`]; region kinds need
    /// [`FaultInjector::inject_region_at`].
    pub fn is_single_cell(self) -> bool {
        !matches!(self, FaultKind::StuckRow | FaultKind::Burst { .. })
    }

    /// Produce the faulty value from the victim's original value.
    ///
    /// For `NearInf` the bit-flip only yields an extreme value when the
    /// original magnitude is below 2; otherwise we synthesise a near-INF of
    /// the same sign (the paper's campaigns resample until the flip lands in
    /// an extreme-producing element; this is the deterministic equivalent).
    ///
    /// Region kinds degrade to their per-cell effect here (`StuckRow` is
    /// the identity on the struck element itself; `Burst` is the exponent
    /// flip) — the full region shape comes from
    /// [`FaultInjector::inject_region_at`].
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

/// Everything needed to reproduce or undo a single injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionRecord {
    /// Victim row within the matrix.
    pub row: usize,
    /// Victim column within the matrix.
    pub col: usize,
    /// Value before injection.
    pub original: f32,
    /// Value after injection.
    pub injected: f32,
    /// Fault class injected.
    pub kind: FaultKind,
}

/// Deterministic fault injector.
///
/// Holds its own RNG stream so campaign trials stay independent of model
/// RNG consumption.
pub struct FaultInjector {
    rng: TensorRng,
}

impl FaultInjector {
    /// Create an injector with its own seeded stream.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: TensorRng::seed_from(seed),
        }
    }

    /// Inject `kind` at a uniformly random element of `m`.
    pub fn inject_random(&mut self, m: &mut Matrix, kind: FaultKind) -> InjectionRecord {
        let row = self.rng.index(m.rows());
        let col = self.rng.index(m.cols());
        self.inject_at(m, kind, row, col)
    }

    /// Inject `kind` at a specific `(row, col)`.
    pub fn inject_at(
        &mut self,
        m: &mut Matrix,
        kind: FaultKind,
        row: usize,
        col: usize,
    ) -> InjectionRecord {
        let original = m[(row, col)];
        let injected = kind.apply(original);
        m[(row, col)] = injected;
        InjectionRecord {
            row,
            col,
            original,
            injected,
            kind,
        }
    }

    /// Inject a region fault (`StuckRow`, `Burst`) at a specific anchor
    /// cell; single-cell kinds degrade to a one-cell region. Returns the
    /// record needed to undo the whole region.
    pub fn inject_region_at(
        &mut self,
        m: &mut Matrix,
        kind: FaultKind,
        row: usize,
        col: usize,
    ) -> RegionRecord {
        let cols = m.cols();
        let (start, len) = match kind {
            FaultKind::StuckRow => (0, cols),
            FaultKind::Burst { len } => (col, len.max(1).min(cols - col)),
            _ => (col, 1),
        };
        let originals: Vec<f32> = m.row(row)[start..start + len].to_vec();
        match kind {
            FaultKind::StuckRow => {
                let stuck = m[(row, col)];
                m.row_mut(row).fill(stuck);
            }
            FaultKind::Burst { .. } => {
                for v in &mut m.row_mut(row)[start..start + len] {
                    *v = near_inf_flip(*v);
                }
            }
            single => {
                m[(row, col)] = single.apply(originals[0]);
            }
        }
        RegionRecord {
            row,
            start,
            originals,
            kind,
        }
    }

    /// Inject a region fault at a uniformly random anchor.
    pub fn inject_region_random(&mut self, m: &mut Matrix, kind: FaultKind) -> RegionRecord {
        let row = self.rng.index(m.rows());
        let col = self.rng.index(m.cols());
        self.inject_region_at(m, kind, row, col)
    }
}

/// Everything needed to undo a region injection.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRecord {
    /// Victim row.
    pub row: usize,
    /// First corrupted column.
    pub start: usize,
    /// Original values of the corrupted span, in column order.
    pub originals: Vec<f32>,
    /// Fault class injected.
    pub kind: FaultKind,
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
    fn inject_random_is_reproducible() {
        let base = Matrix::full(8, 8, 0.5);
        let mut m1 = base.clone();
        let mut m2 = base.clone();
        let r1 = FaultInjector::new(99).inject_random(&mut m1, FaultKind::Inf);
        let r2 = FaultInjector::new(99).inject_random(&mut m2, FaultKind::Inf);
        assert_eq!(r1, r2);
        assert_eq!(m1.data(), m2.data());
    }

    #[test]
    fn inject_and_revert_roundtrip() {
        let mut m = Matrix::full(4, 4, 1.25);
        let before = m.clone();
        let mut inj = FaultInjector::new(7);
        let rec = inj.inject_random(&mut m, FaultKind::NaN);
        assert!(!m.all_finite());
        m[(rec.row, rec.col)] = rec.original;
        assert_eq!(m.data(), before.data());
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

    #[test]
    fn single_cell_partition() {
        assert!(FaultKind::Inf.is_single_cell());
        assert!(FaultKind::SubThreshold.is_single_cell());
        assert!(!FaultKind::StuckRow.is_single_cell());
        assert!(!FaultKind::Burst { len: 4 }.is_single_cell());
    }

    #[test]
    fn stuck_row_repeats_anchor_and_reverts() {
        let mut m = Matrix::from_vec(2, 4, (0..8).map(|i| i as f32).collect());
        let before = m.clone();
        let mut inj = FaultInjector::new(5);
        let rec = inj.inject_region_at(&mut m, FaultKind::StuckRow, 1, 2);
        // Row 1 stuck at its column-2 value; row 0 untouched.
        assert!(m.row(1).iter().all(|&v| v == 6.0));
        assert_eq!(m.row(0), before.row(0));
        m.row_mut(rec.row)[rec.start..rec.start + rec.originals.len()]
            .copy_from_slice(&rec.originals);
        assert_eq!(m.data(), before.data());
    }

    #[test]
    fn burst_corrupts_exactly_len_cells_and_reverts() {
        let mut m = Matrix::full(3, 8, 0.5);
        let before = m.clone();
        let mut inj = FaultInjector::new(6);
        let rec = inj.inject_region_at(&mut m, FaultKind::Burst { len: 3 }, 2, 4);
        let changed = m
            .row(2)
            .iter()
            .zip(before.row(2))
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(changed, 3);
        assert!(m.row(2)[4].abs() > NEAR_INF_THRESHOLD);
        m.row_mut(rec.row)[rec.start..rec.start + rec.originals.len()]
            .copy_from_slice(&rec.originals);
        assert_eq!(m.data(), before.data());
    }

    #[test]
    fn burst_clamps_to_row_end() {
        let mut m = Matrix::full(1, 4, 0.5);
        let mut inj = FaultInjector::new(6);
        let rec = inj.inject_region_at(&mut m, FaultKind::Burst { len: 10 }, 0, 2);
        assert_eq!(rec.originals.len(), 2);
    }
}
