//! Propagation-pattern classification (paper §2.2, Table 2).
//!
//! After a fault is injected and the attention pipeline continues executing,
//! the corrupted region of each downstream matrix takes one of four shapes:
//!
//! * **0D** — a single standalone element (the origin of the fault),
//! * **1R** — (part of) one row,
//! * **1C** — (part of) one column,
//! * **2D** — a sub-matrix beyond one row/column.
//!
//! The *value classes* inside the corrupted region also matter because EEC-
//! ABFT dispatches on them: ±INF, NaN, near-INF, or moderate numeric noise.
//! [`classify`] reproduces both the shape and the census, formatted in the
//! paper's glyph notation (`1R-Θ`, `1C-∞*`, `2D-M`, …).

use crate::bitflip::is_near_inf;
use attn_tensor::float::NEAR_INF_THRESHOLD;
use attn_tensor::Matrix;
use std::fmt;

/// Shape of the corrupted region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternClass {
    /// No corrupted elements.
    Clean,
    /// One standalone corrupted element at `(row, col)`.
    ZeroD { row: usize, col: usize },
    /// Corruption confined to a single row.
    OneRow { row: usize },
    /// Corruption confined to a single column.
    OneCol { col: usize },
    /// Corruption spans multiple rows *and* columns.
    TwoD,
}

impl PatternClass {
    /// Paper-style glyph: `-`, `0D`, `1R`, `1C`, `2D`.
    pub fn glyph(self) -> &'static str {
        match self {
            PatternClass::Clean => "-",
            PatternClass::ZeroD { .. } => "0D",
            PatternClass::OneRow { .. } => "1R",
            PatternClass::OneCol { .. } => "1C",
            PatternClass::TwoD => "2D",
        }
    }
}

/// Value class of a single corrupted element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueClass {
    /// `+∞`
    PosInf,
    /// `-∞`
    NegInf,
    /// NaN
    NaN,
    /// Finite with `|x| >` the near-INF threshold.
    NearInf,
    /// Finite, moderate-magnitude deviation from the reference.
    Moderate,
}

/// Census of value classes across the corrupted region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorTypeCensus {
    /// Count of `+∞` elements.
    pub pos_inf: usize,
    /// Count of `-∞` elements.
    pub neg_inf: usize,
    /// Count of NaN elements.
    pub nan: usize,
    /// Count of finite near-INF elements.
    pub near_inf: usize,
    /// Count of moderate numeric deviations.
    pub moderate: usize,
}

impl ErrorTypeCensus {
    /// Total corrupted elements counted.
    pub fn total(&self) -> usize {
        self.pos_inf + self.neg_inf + self.nan + self.near_inf + self.moderate
    }

    /// Number of *extreme* elements (everything except moderate noise).
    pub fn extreme(&self) -> usize {
        self.total() - self.moderate
    }

    /// Paper-style type glyph:
    /// `∞` (single-sign INF), `∞*` (mixed-sign INF), `Θ` (NaN),
    /// `N` (near-INF), `M` (mixture), `ε` (moderate only).
    pub fn glyph(&self) -> &'static str {
        let kinds_present = [
            self.pos_inf + self.neg_inf > 0,
            self.nan > 0,
            self.near_inf > 0,
        ]
        .iter()
        .filter(|&&b| b)
        .count();
        match kinds_present {
            0 => {
                if self.moderate > 0 {
                    "ε"
                } else {
                    "-"
                }
            }
            1 if self.nan > 0 => "Θ",
            1 if self.near_inf > 0 => "N",
            1 => {
                if self.pos_inf > 0 && self.neg_inf > 0 {
                    "∞*"
                } else {
                    "∞"
                }
            }
            _ => "M",
        }
    }
}

/// Full classification result for one downstream matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationReport {
    /// Shape of the corrupted region.
    pub pattern: PatternClass,
    /// Value-class census over the corrupted elements.
    pub census: ErrorTypeCensus,
    /// Every corrupted position `(row, col)`.
    pub positions: Vec<(usize, usize)>,
}

impl PropagationReport {
    /// True when nothing was corrupted.
    pub fn is_clean(&self) -> bool {
        matches!(self.pattern, PatternClass::Clean)
    }

    /// Paper-table cell, e.g. `1R-Θ`, `1C-∞*`, `2D-M`, or `-` for clean.
    pub fn cell(&self) -> String {
        if self.is_clean() {
            "-".to_string()
        } else {
            format!("{}-{}", self.pattern.glyph(), self.census.glyph())
        }
    }
}

impl fmt::Display for PropagationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} elems)", self.cell(), self.census.total())
    }
}

/// Classify the deviation of `corrupted` from `reference`.
///
/// An element counts as corrupted when its finiteness class differs from the
/// reference or its value deviates by more than
/// `rel_tol · max(1, |reference|)`.
///
/// # Panics
/// Panics if shapes differ.
pub fn classify(reference: &Matrix, corrupted: &Matrix, rel_tol: f32) -> PropagationReport {
    assert_eq!(
        (reference.rows(), reference.cols()),
        (corrupted.rows(), corrupted.cols()),
        "classify: shape mismatch"
    );
    let mut positions = Vec::new();
    let mut census = ErrorTypeCensus::default();

    for r in 0..reference.rows() {
        let ref_row = reference.row(r);
        let cor_row = corrupted.row(r);
        for c in 0..reference.cols() {
            let a = ref_row[c];
            let b = cor_row[c];
            let differs = if a.is_nan() || b.is_nan() {
                a.is_nan() != b.is_nan()
            } else if a.is_infinite() || b.is_infinite() {
                // One side is ±inf and neither is NaN: bit inequality is
                // exactly `a != b`, without a float compare.
                a.to_bits() != b.to_bits()
            } else {
                (a - b).abs() > rel_tol * a.abs().max(1.0)
            };
            if !differs {
                continue;
            }
            positions.push((r, c));
            if b.is_nan() {
                census.nan += 1;
            } else if b == f32::INFINITY {
                census.pos_inf += 1;
            } else if b == f32::NEG_INFINITY {
                census.neg_inf += 1;
            } else if is_near_inf(b, NEAR_INF_THRESHOLD) {
                census.near_inf += 1;
            } else {
                census.moderate += 1;
            }
        }
    }

    let pattern = shape_of(&positions);
    PropagationReport {
        pattern,
        census,
        positions,
    }
}

/// Determine the 0D/1R/1C/2D shape of a set of positions.
pub fn shape_of(positions: &[(usize, usize)]) -> PatternClass {
    match positions {
        [] => PatternClass::Clean,
        [(r, c)] => PatternClass::ZeroD { row: *r, col: *c },
        rest => {
            let r0 = rest[0].0;
            let c0 = rest[0].1;
            let same_row = rest.iter().all(|&(r, _)| r == r0);
            let same_col = rest.iter().all(|&(_, c)| c == c0);
            match (same_row, same_col) {
                (true, _) => PatternClass::OneRow { row: r0 },
                (_, true) => PatternClass::OneCol { col: c0 },
                _ => PatternClass::TwoD,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix {
        Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32 * 0.1)
    }

    #[test]
    fn clean_matrices_classify_clean() {
        let m = base();
        let rep = classify(&m, &m.clone(), 1e-4);
        assert!(rep.is_clean());
        assert_eq!(rep.cell(), "-");
    }

    #[test]
    fn single_inf_is_zero_d() {
        let m = base();
        let mut c = m.clone();
        c[(2, 3)] = f32::INFINITY;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::ZeroD { row: 2, col: 3 });
        assert_eq!(rep.cell(), "0D-∞");
    }

    #[test]
    fn row_of_nans_is_one_r_theta() {
        let m = base();
        let mut c = m.clone();
        for j in 0..5 {
            c[(1, j)] = f32::NAN;
        }
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::OneRow { row: 1 });
        assert_eq!(rep.cell(), "1R-Θ");
        assert_eq!(rep.census.nan, 5);
    }

    #[test]
    fn column_of_mixed_sign_infs_is_one_c_inf_star() {
        let m = base();
        let mut c = m.clone();
        c[(0, 2)] = f32::INFINITY;
        c[(1, 2)] = f32::NEG_INFINITY;
        c[(2, 2)] = f32::INFINITY;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::OneCol { col: 2 });
        assert_eq!(rep.cell(), "1C-∞*");
    }

    #[test]
    fn submatrix_is_two_d_mixture() {
        let m = base();
        let mut c = m.clone();
        c[(0, 0)] = f32::NAN;
        c[(1, 1)] = f32::INFINITY;
        c[(2, 2)] = 5e12;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::TwoD);
        assert_eq!(rep.cell(), "2D-M");
    }

    #[test]
    fn near_inf_census() {
        let m = base();
        let mut c = m.clone();
        c[(3, 0)] = 2e11;
        c[(3, 1)] = -3e12;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::OneRow { row: 3 });
        assert_eq!(rep.cell(), "1R-N");
        assert_eq!(rep.census.near_inf, 2);
    }

    #[test]
    fn moderate_noise_uses_epsilon_glyph() {
        let m = base();
        let mut c = m.clone();
        c[(0, 0)] += 10.0;
        c[(0, 1)] += 20.0;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.cell(), "1R-ε");
    }

    #[test]
    fn tolerance_suppresses_roundoff() {
        let m = base();
        let mut c = m.clone();
        c[(2, 2)] += 1e-6;
        assert!(classify(&m, &c, 1e-4).is_clean());
    }

    #[test]
    fn partial_row_counts_as_one_r() {
        // Paper: "errors accumulate along one row or column (entire or
        // partial)".
        let m = base();
        let mut c = m.clone();
        c[(2, 1)] = f32::NAN;
        c[(2, 4)] = f32::NAN;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::OneRow { row: 2 });
    }

    #[test]
    fn shape_of_single_covers_both_row_and_col() {
        // A single element is 0D, not 1R or 1C.
        assert_eq!(shape_of(&[(3, 4)]), PatternClass::ZeroD { row: 3, col: 4 });
    }

    #[test]
    fn census_mixture_of_nan_and_inf() {
        let cen = ErrorTypeCensus {
            nan: 1,
            pos_inf: 1,
            ..ErrorTypeCensus::default()
        };
        assert_eq!(cen.glyph(), "M");
        assert_eq!(cen.extreme(), 2);
    }

    #[test]
    fn inf_to_nan_reference_transition_detected() {
        // Reference finite, corrupted NaN at 2 spots in a column plus INF at
        // a third: still 1C, mixed type.
        let m = base();
        let mut c = m.clone();
        c[(0, 4)] = f32::NAN;
        c[(1, 4)] = f32::NAN;
        c[(3, 4)] = f32::NEG_INFINITY;
        let rep = classify(&m, &c, 1e-4);
        assert_eq!(rep.pattern, PatternClass::OneCol { col: 4 });
        assert_eq!(rep.census.glyph(), "M");
    }
}
