//! Matrix-level detection and correction passes (paper §4.3, Fig 4).
//!
//! A column pass runs EEC-ABFT on every logical column against the stored
//! column checksums; a row pass does the same per row. Both run over a
//! [`Bordered`] view — data rows at a row stride, and where the two stored
//! checksum rows (or each row's checksum pair) sit — so a GEMM output
//! ([`CheckedMatrix::bordered`]) and a parked KV block
//! ([`crate::decode::AttnKvCache::verify`]) are judged, healed and recorded
//! by the same code. Deterministic patterns need only the one matching
//! pass (`1R` → columns, `1C` → rows, `0D` → either). Nondeterministic
//! patterns — where the fault's origin decides which side's checksums were
//! poisoned during the fused update — use [`full_correct`]:
//!
//! 1. try the column checksums;
//! 2. recompute row checksums of rows healed in step 1 (their stored row
//!    checksums were derived from the corrupted operand and are now stale);
//! 3. run the row pass, which heals `1C` patterns whose column checksums
//!    were poisoned (the paper's false-negative / case-4 route);
//! 4. recompute the column checksums of any column the row pass healed.
//!
//! On the GPU the per-vector threads of a pass are divergence-free when no
//! fault occurred. The CPU analogue here is a **streaming prepass**: one
//! row-major sweep recomputes all per-column (sum, weighted sum, |·| sum)
//! accumulators at memory bandwidth with no per-column gathers or
//! allocations (the row side is one lane-ordered
//! [`attn_tensor::lanes::sums`] per row — see DESIGN.md, "The
//! accumulation-order contract", tiers); only the (rare) flagged vectors
//! are extracted for the full EEC-ABFT correction path, which re-derives
//! its own sums. Fault-free detection therefore costs a single
//! pass over the matrix — the property behind the paper's "minimal overhead
//! to the attention mechanism" claim.

use crate::checked::CheckedMatrix;
use crate::config::AbftConfig;
use crate::eec::{eec_correct_vector, VectorVerdict};
use attn_tensor::{contract, lanes, workspace, MatRef};

/// One corrected element within a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementFix {
    /// Row of the corrected element (logical coordinates).
    pub row: usize,
    /// Column of the corrected element.
    pub col: usize,
    /// Corrupted value.
    pub old_value: f32,
    /// Restored value.
    pub new_value: f32,
}

/// Result of a one-sided pass over a matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutcome {
    /// Elements corrected.
    pub fixes: Vec<ElementFix>,
    /// Vector indices (column index for a column pass, row index for a row
    /// pass) that reported 1D propagation.
    pub propagated: Vec<usize>,
    /// Vector indices whose checksums were corrupt and rebuilt from data.
    pub rebuilt: Vec<usize>,
    /// Vector indices that were unrecoverable from this side.
    pub unrecoverable: Vec<usize>,
}

/// A `rows × cols` data region and its stored checksums where they lie in
/// one row-major buffer: data row `r` starts at `r * stride`; the column
/// checksum pair `(Σ, Σw)` occupies two buffer rows, and a row's pair the
/// two cells after its data. The operand of [`correct_columns`] and
/// [`correct_rows`].
pub struct Bordered<'a> {
    buf: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
    /// Buffer row of the column sums; the weighted ones follow it.
    col_border: Option<usize>,
    /// Whether each row's `(Σ, Σw)` pair follows its data cells.
    row_border: bool,
}

impl<'a> Bordered<'a> {
    /// `rows × cols` data at row stride `stride` in `buf`, no border yet.
    pub fn new(buf: &'a mut [f32], rows: usize, cols: usize, stride: usize) -> Self {
        Self {
            buf,
            rows,
            cols,
            stride,
            col_border: None,
            row_border: false,
        }
    }

    /// The column sums sit in buffer row `at`, the weighted ones in
    /// `at + 1` (for a partly filled block, `at` is past its valid rows).
    pub fn col_border(mut self, at: usize) -> Self {
        debug_assert!(at >= self.rows, "column border overlaps the data");
        self.col_border = Some(at);
        self
    }

    /// Each row's `(Σ, Σw)` pair sits in the two cells after its data.
    pub fn row_border(mut self) -> Self {
        debug_assert!(self.cols + 2 <= self.stride, "no room for row pairs");
        self.row_border = true;
        self
    }

    /// Data row `r`.
    fn row(&self, r: usize) -> &[f32] {
        &self.buf[r * self.stride..][..self.cols]
    }

    /// Buffer offsets of vector `i`'s stored `(Σ, Σw)`.
    fn border_at(&self, axis: Axis, i: usize) -> [usize; 2] {
        match axis {
            Axis::Cols => {
                let at = self.col_border.expect("no column checksums");
                [at * self.stride + i, (at + 1) * self.stride + i]
            }
            Axis::Rows => {
                assert!(self.row_border, "no row checksums");
                let at = i * self.stride + self.cols;
                [at, at + 1]
            }
        }
    }

    /// Rebuild column `c`'s stored pair from data, under the encoder's
    /// contract ([`contract::col_sums`]): the border `encode_cols` — or,
    /// for blocks of at most `MC` rows, row-by-row appending — stores.
    pub fn recompute_col_checksum(&mut self, c: usize) {
        let data = MatRef::new(&self.buf[..self.rows * self.stride], self.rows, self.stride);
        let mut cs = [0.0f32; 2];
        contract::col_sums(data, c..c + 1, &mut cs);
        for (at, v) in self.border_at(Axis::Cols, c).into_iter().zip(cs) {
            self.buf[at] = v;
        }
    }

    /// Rebuild row `r`'s stored pair from data, under the encoder's
    /// contract ([`contract::row_sums`]).
    pub fn recompute_row_checksum(&mut self, r: usize) {
        let (s, ws) = contract::row_sums(self.row(r));
        for (at, v) in self.border_at(Axis::Rows, r).into_iter().zip([s, ws]) {
            self.buf[at] = v;
        }
    }
}

/// Which stored checksums a pass judges its vectors against.
#[derive(Debug, Clone, Copy)]
enum Axis {
    Cols,
    Rows,
}

impl PassOutcome {
    /// Run EEC-ABFT on vector `i` along `axis` of `m` and settle its
    /// verdict: write a corrected element back, rebuild a corrupt border
    /// from data, or record what this side cannot heal. The one place a
    /// [`VectorVerdict`] becomes an outcome.
    fn settle(&mut self, m: &mut Bordered<'_>, axis: Axis, i: usize, cfg: &AbftConfig) {
        let [cs, wcs] = m.border_at(axis, i).map(|at| m.buf[at]);
        let mut v: Vec<f32> = match axis {
            Axis::Cols => (0..m.rows).map(|r| m.buf[r * m.stride + i]).collect(),
            Axis::Rows => m.row(i).to_vec(),
        };
        match eec_correct_vector(&mut v, cs, wcs, cfg) {
            VectorVerdict::Clean => {}
            VectorVerdict::Corrected {
                index,
                old_value,
                new_value,
                ..
            } => {
                let (row, col) = match axis {
                    Axis::Cols => (index, i),
                    Axis::Rows => (i, index),
                };
                m.buf[row * m.stride + col] = new_value;
                self.fixes.push(ElementFix {
                    row,
                    col,
                    old_value,
                    new_value,
                });
            }
            VectorVerdict::Propagated { .. } => self.propagated.push(i),
            VectorVerdict::ChecksumCorrupt => {
                match axis {
                    Axis::Cols => m.recompute_col_checksum(i),
                    Axis::Rows => m.recompute_row_checksum(i),
                }
                self.rebuilt.push(i);
            }
            VectorVerdict::Unrecoverable => self.unrecoverable.push(i),
        }
    }
}

/// Does a (δ1, δ2) pair indicate a suspect vector, using the same bounds as
/// [`eec_correct_vector`]?
#[inline]
fn delta_suspicious(d1: f32, d2: f32, sum_abs: f32, n: usize, cfg: &AbftConfig) -> bool {
    if !d1.is_finite() {
        return true;
    }
    let bound = cfg.detection_bound(sum_abs);
    let bound_w = cfg.detection_bound(sum_abs * n as f32);
    d1.abs() > bound || !d2.is_finite() || d2.abs() > bound_w
}

/// Does any `(δ1, δ2, Σ|v|)` triple fail [`delta_suspicious`]? The verdict
/// on every vector of a pass at once: the same predicate restated
/// branch-free (`|`, not `||`), so the sweep vectorises.
fn any_suspicious(
    deltas: impl Iterator<Item = (f32, f32, f32)>,
    n: usize,
    cfg: &AbftConfig,
) -> bool {
    deltas.fold(false, |bad, (d1, d2, abs)| {
        let bound = cfg.detection_bound(abs);
        let bound_w = cfg.detection_bound(abs * n as f32);
        bad | !d1.is_finite() | (d1.abs() > bound) | !d2.is_finite() | (d2.abs() > bound_w)
    })
}

/// Run EEC-ABFT over every logical column using stored column checksums.
///
/// Detection is one streaming row-major prepass recomputing all column
/// accumulators at once (no gathers); only flagged columns take the
/// correction slow path. Corrections are written back into the data, and
/// checksum-corrupt columns have their borders rebuilt from data.
///
/// # Panics
/// Panics when the view has no column border.
pub fn correct_columns(m: &mut Bordered<'_>, cfg: &AbftConfig) -> PassOutcome {
    let at = m.col_border.expect("correct_columns: no column checksums");
    let (rows, cols) = (m.rows, m.cols);
    let mut out = PassOutcome::default();
    let sums = &m.buf[at * m.stride..][..cols];
    let stored = sums.iter().zip(&m.buf[(at + 1) * m.stride..][..cols]);

    // A one-row matrix is its own column sums (`0 + v`, weight 1): judge it
    // straight from the row; only a firing verdict builds the accumulators.
    if rows == 1 {
        let own = stored.clone().zip(m.row(0));
        if !any_suspicious(own.map(|((cs, wcs), v)| (cs - v, wcs - v, v.abs())), 1, cfg) {
            return out;
        }
    }

    // Streaming prepass: per-column (Σv, Σw·v, Σ|v|) in one sweep. It
    // runs on every clean detection, so the accumulators are arena scratch.
    let mut acc = workspace::take(3 * cols);
    let (d1, rest) = acc.split_at_mut(cols);
    let (d2, abs) = rest.split_at_mut(cols);
    // Zipped so every column's accumulator triple is a vector lane.
    for r in 0..rows {
        let w = crate::checksum::weight(r);
        let acc = d1.iter_mut().zip(d2.iter_mut()).zip(abs.iter_mut());
        for (((s, ws), a), &v) in acc.zip(m.row(r)) {
            *s += v;
            *ws += w * v;
            *a += v.abs();
        }
    }
    // Sums to deltas in place, then the verdict on all columns at once; the
    // per-column EEC loop below is entered only when it fires.
    for ((s, ws), (cs, wcs)) in d1.iter_mut().zip(d2.iter_mut()).zip(stored) {
        (*s, *ws) = (cs - *s, wcs - *ws);
    }
    let deltas = d1.iter().zip(d2.iter()).zip(abs.iter());
    if !any_suspicious(deltas.map(|((&d1, &d2), &a)| (d1, d2, a)), rows, cfg) {
        return out;
    }

    for c in 0..cols {
        if delta_suspicious(d1[c], d2[c], abs[c], rows, cfg) {
            out.settle(m, Axis::Cols, c, cfg);
        }
    }
    out
}

/// Run EEC-ABFT over every logical row using stored row checksums.
///
/// Rows are contiguous in memory, so detection runs in place (one
/// [`lanes::sums`] per row, no copies) and only flagged rows enter the
/// correction path.
///
/// # Panics
/// Panics when the view has no row border.
pub fn correct_rows(m: &mut Bordered<'_>, cfg: &AbftConfig) -> PassOutcome {
    assert!(m.row_border, "correct_rows: no row checksums");
    let mut out = PassOutcome::default();
    for r in 0..m.rows {
        let [cs, wcs] = m.border_at(Axis::Rows, r).map(|at| m.buf[at]);
        let (s, ws, abs) = lanes::sums(m.row(r));
        if delta_suspicious(cs - s, wcs - ws, abs, m.cols, cfg) {
            out.settle(m, Axis::Rows, r, cfg);
        }
    }
    out
}

/// Summary of a full (two-sided) correction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorrectionSummary {
    /// Column-pass outcome.
    pub col_pass: PassOutcome,
    /// Row-pass outcome (absent for matrices without row checksums).
    pub row_pass: Option<PassOutcome>,
    /// Checksum borders recomputed due to staleness after corrections.
    pub stale_rebuilds: usize,
    /// Vector indices that no pass could recover.
    pub unrecovered: usize,
}

impl CorrectionSummary {
    /// Total corrected elements across both passes.
    pub fn total_fixes(&self) -> usize {
        self.col_pass.fixes.len() + self.row_pass.as_ref().map(|p| p.fixes.len()).unwrap_or(0)
    }

    /// Total detections of any kind.
    pub fn total_detections(&self) -> usize {
        let one = |p: &PassOutcome| {
            p.fixes.len() + p.propagated.len() + p.rebuilt.len() + p.unrecoverable.len()
        };
        one(&self.col_pass) + self.row_pass.as_ref().map(one).unwrap_or(0)
    }

    /// 1D propagations that were recognised.
    pub fn total_propagations(&self) -> usize {
        self.col_pass.propagated.len()
            + self
                .row_pass
                .as_ref()
                .map(|p| p.propagated.len())
                .unwrap_or(0)
    }
}

/// Full correction protocol for a protected matrix (see module docs).
///
/// Handles deterministic one-sided matrices (column checksums only) and
/// two-sided matrices with nondeterministic patterns.
pub fn full_correct(m: &mut CheckedMatrix, cfg: &AbftConfig) -> CorrectionSummary {
    let mut m = m.bordered();
    // Phase 1: column checksums (deterministic 1R / 0D route).
    let mut summary = CorrectionSummary {
        col_pass: correct_columns(&mut m, cfg),
        ..CorrectionSummary::default()
    };

    if !m.row_border {
        summary.unrecovered =
            summary.col_pass.propagated.len() + summary.col_pass.unrecoverable.len();
        return summary;
    }

    // Phase 2: the rows healed by phase 1 now disagree with their *stored*
    // row checksums (which were produced from the corrupted operand).
    // Rebuild them before the row pass or it would "correct" good data.
    let mut touched_rows: Vec<usize> = summary.col_pass.fixes.iter().map(|f| f.row).collect();
    touched_rows.sort_unstable();
    touched_rows.dedup();
    for &r in &touched_rows {
        m.recompute_row_checksum(r);
        summary.stale_rebuilds += 1;
    }

    // Phase 3: row checksums heal 1C patterns whose column checksums were
    // poisoned (nondeterministic route / column-pass false negatives).
    let row_pass = correct_rows(&mut m, cfg);

    // Phase 4: columns healed by the row pass have stale column checksums.
    let mut touched_cols: Vec<usize> = row_pass.fixes.iter().map(|f| f.col).collect();
    // Columns that reported propagation in phase 1 were healed element-wise
    // by phase 3; their stored column checksums were poisoned by the
    // original operand corruption, so rebuild those too.
    touched_cols.extend(summary.col_pass.propagated.iter().copied());
    touched_cols.sort_unstable();
    touched_cols.dedup();
    for &c in &touched_cols {
        m.recompute_col_checksum(c);
        summary.stale_rebuilds += 1;
    }

    summary.unrecovered = row_pass.propagated.len() + row_pass.unrecoverable.len();
    summary.row_pass = Some(row_pass);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use attn_tensor::rng::TensorRng;
    use attn_tensor::Matrix;

    fn cfg() -> AbftConfig {
        AbftConfig::default()
    }

    fn checked_both(rng: &mut TensorRng, r: usize, c: usize) -> (Matrix, CheckedMatrix) {
        let a = rng.normal_matrix(r, c, 1.0);
        let ca = CheckedMatrix::encode_both(&a, Strategy::Fused);
        (a, ca)
    }

    #[test]
    fn zero_d_inf_corrected_by_column_pass() {
        let mut rng = TensorRng::seed_from(1);
        let (a, mut ca) = checked_both(&mut rng, 8, 6);
        ca.set(3, 2, f32::INFINITY);
        let outcome = correct_columns(&mut ca.bordered(), &cfg());
        assert_eq!(outcome.fixes.len(), 1);
        assert_eq!((outcome.fixes[0].row, outcome.fixes[0].col), (3, 2));
        assert!(ca.logical().approx_eq(&a, 1e-3, 1e-3));
    }

    #[test]
    fn one_r_pattern_corrected_in_parallel_columns() {
        // Deterministic 1R: every column holds exactly one error at row 4.
        let mut rng = TensorRng::seed_from(2);
        let (a, mut ca) = checked_both(&mut rng, 10, 7);
        for c in 0..7 {
            ca.set(4, c, f32::NAN);
        }
        let outcome = correct_columns(&mut ca.bordered(), &cfg());
        assert_eq!(outcome.fixes.len(), 7);
        assert!(outcome.fixes.iter().all(|f| f.row == 4));
        assert!(ca.logical().approx_eq(&a, 1e-3, 1e-3));
    }

    #[test]
    fn one_c_pattern_reported_as_propagation_by_columns() {
        let mut rng = TensorRng::seed_from(3);
        let (_, mut ca) = checked_both(&mut rng, 10, 7);
        for r in 0..10 {
            ca.set(r, 5, f32::INFINITY);
        }
        let outcome = correct_columns(&mut ca.bordered(), &cfg());
        assert_eq!(outcome.propagated, vec![5]);
        assert!(outcome.fixes.is_empty());
    }

    #[test]
    fn full_correct_heals_one_c_via_rows() {
        // Nondeterministic route: 1C data corruption *and* poisoned column
        // checksums (as if the fault originated in K and propagated through
        // the fused update). Rows must heal it; column checksums must be
        // rebuilt.
        let mut rng = TensorRng::seed_from(4);
        let (a, mut ca) = checked_both(&mut rng, 9, 6);
        let rows = ca.rows();
        for r in 0..rows {
            ca.set(r, 4, f32::NEG_INFINITY);
        }
        // Poison the stored column checksum of column 4 the way a corrupted
        // operand would have.
        ca.buf_mut()[(rows, 4)] = f32::NEG_INFINITY;
        ca.buf_mut()[(rows + 1, 4)] = f32::NEG_INFINITY;

        let summary = full_correct(&mut ca, &cfg());
        assert!(ca.logical().approx_eq(&a, 1e-2, 1e-2));
        assert_eq!(summary.unrecovered, 0);
        let rp = summary.row_pass.as_ref().unwrap();
        assert_eq!(rp.fixes.len(), rows);
        // The healed matrix must be fully self-consistent again.
        assert!(
            ca.max_checksum_discrepancy() < 1e-2,
            "discrepancy {}",
            ca.max_checksum_discrepancy()
        );
    }

    #[test]
    fn full_correct_heals_one_r_and_rebuilds_stale_row_checksums() {
        // Mirror image: 1R data corruption with poisoned row checksums (as
        // if the fault originated in Q).
        let mut rng = TensorRng::seed_from(5);
        let (a, mut ca) = checked_both(&mut rng, 8, 6);
        let cols = ca.cols();
        for c in 0..cols {
            ca.set(2, c, f32::NAN);
        }
        ca.buf_mut()[(2, cols)] = f32::NAN;
        ca.buf_mut()[(2, cols + 1)] = f32::NAN;

        let summary = full_correct(&mut ca, &cfg());
        assert!(ca.logical().approx_eq(&a, 1e-2, 1e-2));
        assert_eq!(summary.col_pass.fixes.len(), cols);
        assert_eq!(summary.unrecovered, 0);
        assert!(ca.max_checksum_discrepancy() < 1e-2);
        // Row checksums of row 2 were stale and rebuilt before the row pass:
        // the row pass must not have "corrected" anything.
        assert!(summary.row_pass.as_ref().unwrap().fixes.is_empty());
    }

    #[test]
    fn full_correct_zero_d_near_inf() {
        let mut rng = TensorRng::seed_from(6);
        let (a, mut ca) = checked_both(&mut rng, 12, 12);
        ca.set(7, 7, 4.2e13);
        let summary = full_correct(&mut ca, &cfg());
        assert_eq!(summary.total_fixes(), 1);
        assert!(ca.logical().approx_eq(&a, 1e-2, 1e-2));
        assert!(ca.max_checksum_discrepancy() < 1e-2);
    }

    #[test]
    fn clean_matrix_full_correct_is_noop() {
        let mut rng = TensorRng::seed_from(7);
        let (a, mut ca) = checked_both(&mut rng, 8, 8);
        let summary = full_correct(&mut ca, &cfg());
        assert_eq!(summary.total_detections(), 0);
        assert_eq!(summary.stale_rebuilds, 0);
        assert!(ca.logical().approx_eq(&a, 0.0, 0.0));
    }

    #[test]
    fn column_only_matrix_reports_unrecovered_on_1c() {
        // Without row checksums a full-column corruption cannot be healed —
        // the section design prevents this from arising (Q/K errors are
        // caught at AS where both sides exist).
        let mut rng = TensorRng::seed_from(8);
        let a = rng.normal_matrix(6, 6, 1.0);
        let mut ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        for r in 0..6 {
            ca.set(r, 1, f32::INFINITY);
        }
        let summary = full_correct(&mut ca, &cfg());
        assert!(summary.row_pass.is_none());
        assert_eq!(summary.unrecovered, 1);
    }

    #[test]
    fn checksum_region_fault_rebuilt_without_touching_data() {
        let mut rng = TensorRng::seed_from(9);
        let (a, mut ca) = checked_both(&mut rng, 8, 8);
        let rows = ca.rows();
        ca.buf_mut()[(rows, 3)] = f32::INFINITY; // unweighted col checksum hit
        let summary = full_correct(&mut ca, &cfg());
        assert!(summary.col_pass.rebuilt.contains(&3));
        assert!(ca.logical().approx_eq(&a, 0.0, 0.0));
        assert!(ca.max_checksum_discrepancy() < 1e-2);
    }

    #[test]
    fn wide_matrix_prepass_flags_only_faulty_columns() {
        let mut rng = TensorRng::seed_from(10);
        let a = rng.normal_matrix(16, 80, 1.0);
        let mut ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        ca.set(5, 40, f32::INFINITY);
        ca.set(9, 70, f32::NAN);
        let outcome = correct_columns(&mut ca.bordered(), &cfg());
        assert_eq!(outcome.fixes.len(), 2);
        assert!(ca.logical().approx_eq(&a, 1e-2, 1e-2));
    }

    #[test]
    fn mixed_faults_across_distinct_columns_all_corrected() {
        let mut rng = TensorRng::seed_from(11);
        let (a, mut ca) = checked_both(&mut rng, 10, 10);
        ca.set(1, 0, f32::INFINITY);
        ca.set(4, 3, f32::NAN);
        ca.set(8, 7, 9.9e11);
        let summary = full_correct(&mut ca, &cfg());
        assert_eq!(summary.total_fixes(), 3);
        assert!(ca.logical().approx_eq(&a, 1e-2, 1e-2));
        assert_eq!(summary.unrecovered, 0);
    }

    proptest::proptest! {
        /// The branch-free verdict sweep is the per-column predicate
        /// (`delta_suspicious`) OR-ed over the columns: on clean matrices and
        /// with an Inf / NaN / near-INF planted in a data row or in either
        /// checksum row, at one row (judged straight from the row) and at many.
        #[test]
        fn verdict_sweep_equals_the_per_column_predicate(
            mi in 0usize..4,
            cols in 1usize..48,
            plant in 0usize..4,
            at in 0usize..3,
            pos in 0usize..4096,
            seed in 0u64..10_000,
        ) {
            let rows = [1usize, 2, 5, 64][mi];
            let a = TensorRng::seed_from(seed).normal_matrix(rows, cols, 1.0);
            let mut m = CheckedMatrix::encode_cols(&a, Strategy::Fused);
            if plant > 0 {
                let v = [f32::INFINITY, f32::NAN, 3.0e12][plant - 1];
                let r = if at == 0 { pos % rows } else { rows + at - 1 };
                m.buf_mut()[(r, pos % cols)] = v;
            }
            let deltas: Vec<(f32, f32, f32)> = (0..cols)
                .map(|c| {
                    let (s, ws, abs) = (0..rows).fold((0.0, 0.0, 0.0), |(s, ws, abs), r| {
                        let v = m.get(r, c);
                        (s + v, ws + crate::checksum::weight(r) * v, abs + v.abs())
                    });
                    let (cs, wcs) = (m.buf()[(rows, c)], m.buf()[(rows + 1, c)]);
                    (cs - s, wcs - ws, abs)
                })
                .collect();
            let want = deltas.iter().any(|&(d1, d2, abs)| delta_suspicious(d1, d2, abs, rows, &cfg()));
            proptest::prop_assert_eq!(any_suspicious(deltas.into_iter(), rows, &cfg()), want);
            proptest::prop_assert_eq!(want, plant > 0, "only a planted extreme fires");
            // The pass itself agrees: quiet exactly when nothing fired (at
            // one row this is the verdict taken straight from the row).
            let before = m.clone();
            let quiet = correct_columns(&mut m.bordered(), &cfg()) == PassOutcome::default();
            proptest::prop_assert_eq!(quiet, !want);
            proptest::prop_assert!(want || m == before);
        }
    }
}
