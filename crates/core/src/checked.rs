//! Checksum-augmented matrices with fused update (paper §4.6).
//!
//! A [`CheckedMatrix`] *physically* appends its checksum rows/columns to the
//! data buffer:
//!
//! ```text
//!                cols      2 (row cs)
//!            ┌─────────┬────────┐
//!    rows    │  data   │ A·v1 A·v2 │
//!            ├─────────┼────────┤
//!    2       │ v1ᵀA    │ corner │   (col cs)
//!  (col cs)  │ v2ᵀA    │        │
//!            └─────────┴────────┘
//! ```
//!
//! Because checksums live inside the operand, a *single* GEMM over the
//! augmented buffers updates data and checksums together — the paper's
//! "pack the checksum with the operand matrix such that the checksum can be
//! updated together with the original operation". That GEMM is
//! [`CheckedMatrix::product`]: one function over two borrowed [`Operand`]
//! views that picks the kernel ([`ProductKind`]) and composes the border
//! flags; plain matrices (weights, activations) and checked ones enter it
//! the same way, uncopied. It is the only route a guarded product takes.

use crate::checksum::{col_checksums, row_checksums, weight};
use crate::config::Strategy;
use attn_tensor::{contract, gemm};
use attn_tensor::{MatRef, Matrix};

/// A dense matrix whose buffer physically carries dual checksums.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedMatrix {
    /// Logical (data) rows.
    rows: usize,
    /// Logical (data) columns.
    cols: usize,
    /// Two extra buffer rows hold `v1ᵀA` / `v2ᵀA`.
    has_col_cs: bool,
    /// Two extra buffer columns hold `A·v1` / `A·v2`.
    has_row_cs: bool,
    /// Physical storage, `(rows + 2·col_cs) × (cols + 2·row_cs)`.
    buf: Matrix,
}

/// Borrowed operand of a guarded product: a `Copy` view of a plain
/// [`Matrix`] or of a [`CheckedMatrix`]'s augmented buffer, with the
/// logical shape and the two border flags. Weights and activations enter
/// [`CheckedMatrix::product`] through it, so nothing is wrapped (and
/// cloned) into an owned `CheckedMatrix` just to be multiplied.
#[derive(Clone, Copy)]
pub struct Operand<'a> {
    buf: MatRef<'a>,
    rows: usize,
    cols: usize,
    has_col_cs: bool,
    has_row_cs: bool,
}

impl<'a> From<&'a Matrix> for Operand<'a> {
    fn from(m: &'a Matrix) -> Self {
        Self {
            buf: m.view(),
            rows: m.rows(),
            cols: m.cols(),
            has_col_cs: false,
            has_row_cs: false,
        }
    }
}

impl<'a> From<&'a CheckedMatrix> for Operand<'a> {
    fn from(m: &'a CheckedMatrix) -> Self {
        Self {
            buf: m.buf.view(),
            rows: m.rows,
            cols: m.cols,
            has_col_cs: m.has_col_cs,
            has_row_cs: m.has_row_cs,
        }
    }
}

impl<'a> Operand<'a> {
    /// Whether column checksums are present.
    #[inline]
    pub(crate) fn has_col_checksums(&self) -> bool {
        self.has_col_cs
    }

    /// The same operand without its column-checksum rows: they trail the
    /// row-major buffer, so dropping them is a prefix view, not a copy.
    pub(crate) fn without_col_checksums(self) -> Self {
        Self {
            buf: self.buf.top_rows(self.rows),
            has_col_cs: false,
            ..self
        }
    }

    /// Logical row `r`, read in place (no checksum cell).
    #[inline]
    pub fn logical_row(&self, r: usize) -> &'a [f32] {
        &self.buf.row(r)[..self.cols]
    }
}

/// Which kernel [`CheckedMatrix::product`] issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductKind {
    /// `A · B`: `A`'s column checksums and `B`'s row checksums ride
    /// through to the product.
    Nn,
    /// `[A; v1ᵀA; v2ᵀA] · B` over *plain* `A`: the column encoding
    /// accumulates inside the GEMM's packing pass
    /// (`attn_tensor::gemm::gemm_encode_cols_into`), bit-identical to
    /// `encode_cols(A, Fused)` followed by [`ProductKind::Nn`] but without
    /// the standalone encode sweep or the augmented copy.
    EncodeCols,
}

impl CheckedMatrix {
    /// Wrap an owned plain matrix with no checksums (no copy).
    pub fn from_plain_owned(data: Matrix) -> Self {
        Self {
            rows: data.rows(),
            cols: data.cols(),
            has_col_cs: false,
            has_row_cs: false,
            buf: data,
        }
    }

    /// Assemble a checked matrix from an externally produced augmented
    /// buffer. The decode path runs GEMMs over paged KV caches
    /// (`attn_tensor::PagedKv`) and builds the product buffer directly,
    /// so it cannot go through the owned-operand constructors above.
    pub(crate) fn from_augmented(
        rows: usize,
        cols: usize,
        has_col_cs: bool,
        has_row_cs: bool,
        buf: Matrix,
    ) -> Self {
        debug_assert_eq!(buf.rows(), rows + if has_col_cs { 2 } else { 0 });
        debug_assert_eq!(buf.cols(), cols + if has_row_cs { 2 } else { 0 });
        Self {
            rows,
            cols,
            has_col_cs,
            has_row_cs,
            buf,
        }
    }

    /// Encode column checksums (two appended rows). `Strategy` has the one
    /// variant `Fused` (see its docs for why the argument stays).
    pub fn encode_cols(data: &Matrix, _strategy: Strategy) -> Self {
        Self {
            rows: data.rows(),
            cols: data.cols(),
            has_col_cs: true,
            has_row_cs: false,
            buf: data.vstack(&col_checksums(data)),
        }
    }

    /// Encode row checksums (two appended columns).
    pub fn encode_rows(data: &Matrix, _strategy: Strategy) -> Self {
        Self {
            rows: data.rows(),
            cols: data.cols(),
            has_col_cs: false,
            has_row_cs: true,
            buf: data.hstack(&row_checksums(data)),
        }
    }

    /// Encode both sides (columns, rows, and the consistency corner).
    pub fn encode_both(data: &Matrix, strategy: Strategy) -> Self {
        let with_rows = Self::encode_rows(data, strategy);
        // Column checksums of the row-augmented buffer also cover the
        // checksum columns, producing the 2×2 corner automatically.
        let cs = col_checksums(&with_rows.buf);
        Self {
            rows: data.rows(),
            cols: data.cols(),
            has_col_cs: true,
            has_row_cs: true,
            buf: with_rows.buf.vstack(&cs),
        }
    }

    /// Logical rows of the protected matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns of the protected matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether column checksums are present.
    #[inline]
    pub fn has_col_checksums(&self) -> bool {
        self.has_col_cs
    }

    /// Whether row checksums are present.
    #[inline]
    pub fn has_row_checksums(&self) -> bool {
        self.has_row_cs
    }

    /// Physical buffer (data + checksum borders).
    #[inline]
    pub fn buf(&self) -> &Matrix {
        &self.buf
    }

    /// Mutable physical buffer. Campaign code uses this to strike faults in
    /// the checksum regions as well as the data region.
    #[inline]
    pub fn buf_mut(&mut self) -> &mut Matrix {
        &mut self.buf
    }

    /// Logical element read.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.buf[(r, c)]
    }

    /// Logical element write (checksums intentionally untouched — this is
    /// how campaigns model a computation fault).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.buf[(r, c)] = v;
    }

    /// Copy of the logical data region.
    pub fn logical(&self) -> Matrix {
        self.buf.submatrix(0, self.rows, 0, self.cols)
    }

    /// The logical data region by value. Column checksums trail the
    /// row-major buffer, so dropping them is a truncate; only row
    /// checksums (interleaved with the data) force a copy.
    pub fn into_logical(self) -> Matrix {
        if self.has_row_cs {
            self.logical()
        } else {
            self.buf.into_top_rows(self.rows)
        }
    }

    /// Stored `(checksum, weighted checksum)` for logical column `c`.
    #[inline]
    pub fn col_checksum(&self, c: usize) -> (f32, f32) {
        debug_assert!(self.has_col_cs);
        (self.buf[(self.rows, c)], self.buf[(self.rows + 1, c)])
    }

    /// Stored `(checksum, weighted checksum)` for logical row `r`.
    #[inline]
    pub fn row_checksum(&self, r: usize) -> (f32, f32) {
        debug_assert!(self.has_row_cs);
        (self.buf[(r, self.cols)], self.buf[(r, self.cols + 1)])
    }

    /// Logical column `c` copied into a vector (data region only).
    pub fn logical_col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.buf[(r, c)]).collect()
    }

    /// Logical row `r` as a slice (data region only).
    pub fn logical_row(&self, r: usize) -> &[f32] {
        &self.buf.row(r)[..self.cols]
    }

    /// The one fused product over the augmented buffers: a single kernel
    /// call updates data and checksums together (paper §4.6). Checksum
    /// flags compose — the left operand's column checksums and the right
    /// operand's row checksums ride through, [`ProductKind::EncodeCols`]
    /// adds the missing column border on entry, the corner comes for free.
    ///
    /// # Panics
    /// Panics when an operand carries checksums along the inner dimension
    /// (they would corrupt the product) and, in the kernel, on dimension
    /// mismatch — which an entry encode over an already encoded side is.
    #[allow(
        clippy::disallowed_methods,
        reason = "this is the guarded product: the kernel call updates data and checksums together"
    )]
    pub fn product<'a, 'b>(
        a: impl Into<Operand<'a>>,
        b: impl Into<Operand<'b>>,
        kind: ProductKind,
    ) -> CheckedMatrix {
        let (a, b) = (a.into(), b.into());
        assert!(
            !a.has_row_cs && !b.has_col_cs,
            "product: checksums along the inner dimension"
        );
        let has_col_cs = a.has_col_cs || kind == ProductKind::EncodeCols;
        let mut buf = Matrix::zeros(
            a.rows + 2 * usize::from(has_col_cs),
            b.cols + 2 * usize::from(b.has_row_cs),
        );
        match kind {
            ProductKind::Nn => gemm::matmul_into(a.buf, b.buf, buf.view_mut()),
            ProductKind::EncodeCols => gemm::gemm_encode_cols_into(a.buf, b.buf, buf.view_mut()),
        }
        CheckedMatrix {
            rows: a.rows,
            cols: b.cols,
            has_col_cs,
            has_row_cs: b.has_row_cs,
            buf,
        }
    }

    /// Scale the entire augmented buffer (data *and* checksums) by `s` —
    /// checksum linearity makes this exact, so `AS / √d_k` keeps protection.
    pub fn scale_inplace(&mut self, s: f32) {
        self.buf.scale_inplace(s);
    }

    /// Add a broadcast bias row to every logical row, adjusting the stored
    /// checksums so the invariant survives: the bias contributes `m·b` to
    /// the unweighted column checksum, `Σwᵢ·b` to the weighted one, and
    /// `(Σb, Σwⱼbⱼ)` to every row checksum.
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "add_bias: length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.buf.row_mut(r)[..self.cols].iter_mut().zip(bias) {
                *v += b;
            }
        }
        let m = self.rows;
        let sum_w: f32 = (0..m).map(weight).sum();
        if self.has_col_cs {
            // The two border rows are adjacent in the buffer: split once and
            // zip both against `bias`, no per-element index arithmetic.
            let ld = self.buf.cols();
            let (cs, wcs) = self.buf.data_mut()[m * ld..].split_at_mut(ld);
            for ((s, ws), &b) in cs.iter_mut().zip(wcs).zip(bias) {
                *s += m as f32 * b;
                *ws += sum_w * b;
            }
        }
        if self.has_row_cs {
            let bias_sum: f32 = bias.iter().sum();
            let bias_wsum: f32 = bias.iter().enumerate().map(|(c, &b)| weight(c) * b).sum();
            for r in 0..m {
                self.buf[(r, self.cols)] += bias_sum;
                self.buf[(r, self.cols + 1)] += bias_wsum;
            }
            if self.has_col_cs {
                // Corner: v_iᵀ·(1·bᵀ)·v_j = (Σv_i)(bᵀv_j).
                self.buf[(m, self.cols)] += m as f32 * bias_sum;
                self.buf[(m, self.cols + 1)] += m as f32 * bias_wsum;
                self.buf[(m + 1, self.cols)] += sum_w * bias_sum;
                self.buf[(m + 1, self.cols + 1)] += sum_w * bias_wsum;
            }
        }
    }

    /// Rebuild the stored checksums of a single logical column from data,
    /// under the encoder's contract ([`contract::col_sums`]): the rebuilt
    /// border equals what `encode_cols` would have stored, at every shape.
    pub fn recompute_col_checksum(&mut self, c: usize) {
        debug_assert!(self.has_col_cs && c < self.cols);
        let mut cs = [0.0f32; 2];
        contract::col_sums(self.buf.view().top_rows(self.rows), c..c + 1, &mut cs);
        self.buf[(self.rows, c)] = cs[0];
        self.buf[(self.rows + 1, c)] = cs[1];
    }

    /// Rebuild the stored checksums of a single logical row from data,
    /// under the encoder's contract ([`contract::row_sums`]).
    pub fn recompute_row_checksum(&mut self, r: usize) {
        debug_assert!(self.has_row_cs);
        let (s, ws) = contract::row_sums(self.logical_row(r));
        self.buf[(r, self.cols)] = s;
        self.buf[(r, self.cols + 1)] = ws;
    }

    /// Slice logical columns `[start, end)` keeping column checksums (used
    /// to split `Q`/`K` into per-head blocks — column checksums restrict to
    /// column ranges exactly).
    ///
    /// # Panics
    /// Panics when row checksums are present (they do not survive column
    /// slicing) or the range is invalid.
    pub fn slice_cols(&self, start: usize, end: usize) -> CheckedMatrix {
        assert!(
            !self.has_row_cs,
            "slice_cols: row checksums cannot be sliced"
        );
        assert!(start <= end && end <= self.cols);
        let phys_rows = self.buf.rows();
        CheckedMatrix {
            rows: self.rows,
            cols: end - start,
            has_col_cs: self.has_col_cs,
            has_row_cs: false,
            buf: self.buf.submatrix(0, phys_rows, start, end),
        }
    }

    /// Horizontally concatenate column-checksummed blocks (per-head `CL`
    /// blocks back into the full context layer): one merged buffer, each
    /// block's logical columns copied once. Only column checksums ride into
    /// `S_O` — they restrict to column ranges exactly — so a block that
    /// still carries its row-checksum pair simply leaves it behind.
    ///
    /// # Panics
    /// Panics if blocks disagree on rows or on the column-checksum flag.
    pub fn concat_cols(blocks: &[CheckedMatrix]) -> CheckedMatrix {
        assert!(!blocks.is_empty());
        let rows = blocks[0].rows;
        let has_col_cs = blocks[0].has_col_cs;
        let cols = blocks.iter().map(|b| b.cols).sum();
        let mut buf = Matrix::zeros(blocks[0].buf.rows(), cols);
        let mut c0 = 0;
        for b in blocks {
            assert_eq!(b.rows, rows, "concat_cols: row mismatch");
            assert_eq!(b.has_col_cs, has_col_cs, "concat_cols: flag mismatch");
            for r in 0..buf.rows() {
                buf.row_mut(r)[c0..c0 + b.cols].copy_from_slice(&b.buf.row(r)[..b.cols]);
            }
            c0 += b.cols;
        }
        CheckedMatrix {
            rows,
            cols,
            has_col_cs,
            has_row_cs: false,
            buf,
        }
    }

    /// Verify every stored checksum against a recomputation; returns the
    /// maximum absolute discrepancy (0 for a perfectly consistent matrix).
    /// Intended for tests and invariant assertions, not the hot path.
    pub fn max_checksum_discrepancy(&self) -> f32 {
        let mut worst = 0.0f32;
        if self.has_col_cs {
            for c in 0..self.cols {
                let col = self.logical_col(c);
                let (s, ws, _) = crate::checksum::vector_sums(&col);
                let (cs, wcs) = self.col_checksum(c);
                worst = worst.max((cs - s).abs()).max((wcs - ws).abs());
            }
        }
        if self.has_row_cs {
            for r in 0..self.rows {
                let (s, ws, _) = crate::checksum::vector_sums(self.logical_row(r));
                let (cs, wcs) = self.row_checksum(r);
                worst = worst.max((cs - s).abs()).max((wcs - ws).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests check guarded products against the raw kernels"
)]
mod tests {
    use super::*;
    use attn_tensor::rng::TensorRng;

    fn rand(rng: &mut TensorRng, r: usize, c: usize) -> Matrix {
        rng.normal_matrix(r, c, 1.0)
    }

    #[test]
    fn encode_cols_layout() {
        let mut rng = TensorRng::seed_from(1);
        let a = rand(&mut rng, 5, 4);
        let ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        assert_eq!((ca.rows(), ca.cols()), (5, 4));
        assert_eq!((ca.buf().rows(), ca.buf().cols()), (7, 4));
        assert_eq!(ca.logical(), a);
        assert!(ca.max_checksum_discrepancy() < 1e-4);
    }

    #[test]
    fn encode_both_has_consistent_corner() {
        let mut rng = TensorRng::seed_from(2);
        let a = rand(&mut rng, 6, 5);
        let ca = CheckedMatrix::encode_both(&a, Strategy::Fused);
        assert_eq!((ca.buf().rows(), ca.buf().cols()), (8, 7));
        assert!(ca.max_checksum_discrepancy() < 1e-4);
        // Corner (0,0) = total sum of A.
        let total: f32 = a.data().iter().sum();
        assert!((ca.buf()[(6, 5)] - total).abs() < 1e-3);
    }

    #[test]
    fn fused_matmul_carries_checksums() {
        let mut rng = TensorRng::seed_from(3);
        let a = rand(&mut rng, 6, 8);
        let b = rand(&mut rng, 8, 5);
        let ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        let cb = CheckedMatrix::encode_rows(&b, Strategy::Fused);
        let cc = CheckedMatrix::product(&ca, &cb, ProductKind::Nn);
        assert!(cc.has_col_checksums() && cc.has_row_checksums());
        assert!(cc.logical().approx_eq(&gemm::matmul(&a, &b), 1e-4, 1e-4));
        assert!(
            cc.max_checksum_discrepancy() < 1e-2,
            "discrepancy {}",
            cc.max_checksum_discrepancy()
        );
    }

    #[test]
    fn fused_encode_cols_is_bit_identical_to_encode_then_gemm() {
        let mut rng = TensorRng::seed_from(31);
        // Sizes straddling the MC row-block and KC k-block edges, plus a
        // row-checksummed right operand (corner case included).
        for &(m, k, n) in &[(1, 1, 1), (6, 8, 5), (70, 150, 9), (130, 260, 33)] {
            let a = rand(&mut rng, m, k);
            let b = rand(&mut rng, k, n);
            let cb = CheckedMatrix::encode_rows(&b, Strategy::Fused);
            for rhs in [Operand::from(&b), Operand::from(&cb)] {
                let fused = CheckedMatrix::product(&a, rhs, ProductKind::EncodeCols);
                let ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
                let staged = CheckedMatrix::product(&ca, rhs, ProductKind::Nn);
                assert_eq!(fused.buf(), staged.buf(), "{m}x{k}x{n}");
                assert_eq!(fused.has_row_checksums(), staged.has_row_checksums());
                assert!(fused.has_col_checksums());
            }
        }
    }

    #[test]
    fn from_plain_owned_avoids_reencoding() {
        let mut rng = TensorRng::seed_from(41);
        let a = rand(&mut rng, 3, 4);
        let m = CheckedMatrix::from_plain_owned(a.clone());
        assert_eq!(m.logical(), a);
        assert!(!m.has_col_checksums() && !m.has_row_checksums());
    }

    #[test]
    fn scale_preserves_invariant() {
        let mut rng = TensorRng::seed_from(7);
        let a = rand(&mut rng, 6, 6);
        let mut ca = CheckedMatrix::encode_both(&a, Strategy::Fused);
        ca.scale_inplace(0.125);
        assert!(ca.max_checksum_discrepancy() < 1e-4);
        assert!(ca.logical().approx_eq(&a.scaled(0.125), 1e-6, 1e-6));
    }

    #[test]
    fn add_bias_preserves_invariant_all_layouts() {
        let mut rng = TensorRng::seed_from(8);
        let a = rand(&mut rng, 5, 4);
        let bias = vec![0.5, -1.0, 2.0, 0.25];
        for enc in [
            CheckedMatrix::encode_cols(&a, Strategy::Fused),
            CheckedMatrix::encode_rows(&a, Strategy::Fused),
            CheckedMatrix::encode_both(&a, Strategy::Fused),
        ] {
            let mut m = enc;
            m.add_bias(&bias);
            assert!(
                m.max_checksum_discrepancy() < 1e-3,
                "discrepancy {}",
                m.max_checksum_discrepancy()
            );
            for r in 0..5 {
                for c in 0..4 {
                    assert!((m.get(r, c) - (a[(r, c)] + bias[c])).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn slice_cols_keeps_per_column_checksums() {
        let mut rng = TensorRng::seed_from(9);
        let a = rand(&mut rng, 6, 8);
        let ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        let head = ca.slice_cols(2, 6);
        assert_eq!((head.rows(), head.cols()), (6, 4));
        assert!(head.max_checksum_discrepancy() < 1e-4);
        assert_eq!(head.logical(), a.submatrix(0, 6, 2, 6));
    }

    #[test]
    fn concat_cols_rebuilds_full_matrix() {
        let mut rng = TensorRng::seed_from(10);
        let a = rand(&mut rng, 4, 6);
        let ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        let left = ca.slice_cols(0, 3);
        let right = ca.slice_cols(3, 6);
        let merged = CheckedMatrix::concat_cols(&[left, right]);
        assert_eq!(merged.buf(), ca.buf());
        // A block that still carries its row-checksum pair contributes its
        // logical columns and column checksums only.
        let both = CheckedMatrix::encode_both(&a, Strategy::Fused);
        let merged = CheckedMatrix::concat_cols(&[both.clone(), both]);
        assert!(merged.has_col_checksums() && !merged.has_row_checksums());
        assert_eq!(merged.slice_cols(6, 12).buf(), ca.buf());
    }

    #[test]
    fn recompute_checksums_heals_corruption() {
        let mut rng = TensorRng::seed_from(12);
        let a = rand(&mut rng, 5, 5);
        let mut ca = CheckedMatrix::encode_both(&a, Strategy::Fused);
        // Corrupt a checksum cell of each border directly.
        let (rows, cols) = (ca.rows(), ca.cols());
        ca.buf_mut()[(rows, 2)] = f32::NAN;
        ca.buf_mut()[(3, cols + 1)] = f32::INFINITY;
        ca.recompute_col_checksum(2);
        ca.recompute_row_checksum(3);
        assert!(ca.max_checksum_discrepancy() < 1e-4);
    }

    #[test]
    fn rebuilt_borders_equal_the_encoder_bits_at_every_shape() {
        // A border rebuilt after a correction must be what the encoder
        // would have stored — past MC rows / NC columns too (FFN rows are
        // 512 wide), where an unblocked sum lands on different bits.
        let mut rng = TensorRng::seed_from(43);
        for &(m, n) in &[(64, 64), (130, 70), (200, 150)] {
            let a = rand(&mut rng, m, n);
            let encoded = CheckedMatrix::encode_both(&a, Strategy::Fused);
            let mut rebuilt = encoded.clone();
            for c in 0..n {
                rebuilt.buf_mut()[(m, c)] = f32::NAN;
                rebuilt.buf_mut()[(m + 1, c)] = f32::NAN;
                rebuilt.recompute_col_checksum(c);
            }
            for r in 0..m {
                rebuilt.buf_mut()[(r, n)] = f32::NAN;
                rebuilt.buf_mut()[(r, n + 1)] = f32::NAN;
                rebuilt.recompute_row_checksum(r);
            }
            assert_eq!(
                rebuilt.buf(),
                encoded.buf(),
                "{m}x{n}: rebuilt borders drifted"
            );
        }
    }

    #[test]
    fn data_fault_breaks_checksum_relation() {
        let mut rng = TensorRng::seed_from(13);
        let a = rand(&mut rng, 6, 6);
        let mut ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
        ca.set(3, 2, f32::INFINITY);
        let d = ca.max_checksum_discrepancy();
        assert!(d.is_nan() || d >= 1e-2, "fault must break the invariant");
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_row_checksummed_left() {
        let a = Matrix::zeros(3, 3);
        let ca = CheckedMatrix::encode_rows(&a, Strategy::Fused);
        let _ = CheckedMatrix::product(&ca, &a, ProductKind::Nn);
    }

    #[test]
    fn chained_products_keep_checksums_consistent() {
        // X(col) · W1 → ·W2 → still consistent: the checksum-passing
        // mechanism of §4.4 across a whole section.
        let mut rng = TensorRng::seed_from(14);
        let x = rand(&mut rng, 6, 8);
        let w1 = rand(&mut rng, 8, 8);
        let w2 = rand(&mut rng, 8, 4);
        let cx = CheckedMatrix::encode_cols(&x, Strategy::Fused);
        let c1 = CheckedMatrix::product(&cx, &w1, ProductKind::Nn);
        let c2 = CheckedMatrix::product(&c1, &w2, ProductKind::Nn);
        assert!(c2.has_col_checksums());
        assert!(c2.max_checksum_discrepancy() < 5e-2);
        let expect = gemm::matmul(&gemm::matmul(&x, &w1), &w2);
        assert!(c2.logical().approx_eq(&expect, 1e-4, 1e-4));
    }
}
