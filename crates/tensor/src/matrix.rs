//! Owned dense row-major `f32` matrix.

use crate::view::{MatMut, MatRef};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Owned, row-major dense `f32` matrix.
///
/// This is the workhorse container of the reproduction: model parameters,
/// activations, and ABFT checksums are all `Matrix` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {} elements for {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Contiguous row-major storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable contiguous row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view over the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(&self.data, self.rows, self.cols)
    }

    /// Mutable view over the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::new(&mut self.data, self.rows, self.cols)
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on larger matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise sum with another matrix of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference (`self - other`).
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise binary zip with shape check.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "Matrix::zip: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every element by `s`.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Maximum absolute element (0 for empty matrices). NaNs are ignored.
    pub fn max_abs(&self) -> f32 {
        self.data
            .iter()
            .filter(|x| !x.is_nan())
            .fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if every element is finite (no INF/NaN).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Approximate equality: `|a-b| <= atol + rtol * |b|` element-wise.
    pub fn approx_eq(&self, other: &Matrix, rtol: f32, atol: f32) -> bool {
        if (self.rows, self.cols) != (other.rows, other.cols) {
            return false;
        }
        self.data
            .iter()
            .zip(&other.data)
            .all(|(&a, &b)| (a - b).abs() <= atol + rtol * b.abs())
    }

    /// Horizontally concatenate (`[self | other]`).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertically concatenate (`[self; other]`).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// The first `rows` rows by value: the trailing rows are truncated
    /// off the storage, nothing is copied.
    ///
    /// # Panics
    /// Panics if `rows > self.rows()`.
    pub fn into_top_rows(mut self, rows: usize) -> Matrix {
        assert!(rows <= self.rows, "into_top_rows: {rows} of {}", self.rows);
        self.data.truncate(rows * self.cols);
        self.rows = rows;
        self
    }

    /// Copy of the sub-matrix `rows_range × col_range`.
    pub fn submatrix(
        &self,
        row_start: usize,
        row_end: usize,
        col_start: usize,
        col_end: usize,
    ) -> Matrix {
        assert!(row_end <= self.rows && col_end <= self.cols);
        assert!(row_start <= row_end && col_start <= col_end);
        let mut out = Matrix::zeros(row_end - row_start, col_end - col_start);
        for (ro, r) in (row_start..row_end).enumerate() {
            let src = &self.row(r)[col_start..col_end];
            out.row_mut(ro).copy_from_slice(src);
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m[(1, 2)] = 4.0;
        assert_eq!(m[(1, 2)], 4.0);
        assert_eq!(m.data()[5], 4.0);
    }

    #[test]
    fn identity_diag() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_row_major() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 7);
        assert_eq!(t.cols(), 5);
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(m[(r, c)], t[(c, r)]);
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked() {
        let m = Matrix::from_fn(65, 47, |r, c| (r * 47 + c) as f32);
        let t = m.transpose();
        for r in 0..65 {
            for c in 0..47 {
                assert_eq!(m[(r, c)], t[(c, r)]);
            }
        }
    }

    #[test]
    fn add_sub() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert!(a.data().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn max_abs_ignores_nan() {
        let m = Matrix::from_vec(1, 3, vec![1.0, f32::NAN, -2.0]);
        assert_eq!(m.max_abs(), 2.0);
    }

    #[test]
    fn all_finite_detects_inf_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m[(0, 1)] = f32::INFINITY;
        assert!(!m.all_finite());
        m[(0, 1)] = f32::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn stack_shapes() {
        let a = Matrix::full(2, 3, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        let h = a.hstack(&b);
        assert_eq!((h.rows(), h.cols()), (2, 5));
        assert_eq!(h[(0, 3)], 2.0);
        assert_eq!(h[(1, 2)], 1.0);

        let c = Matrix::full(1, 3, 3.0);
        let v = a.vstack(&c);
        assert_eq!((v.rows(), v.cols()), (3, 3));
        assert_eq!(v[(2, 0)], 3.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!((s.rows(), s.cols()), (2, 2));
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn approx_eq_tolerances() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 100.0]);
        let b = Matrix::from_vec(1, 2, vec![1.0 + 1e-6, 100.0 + 1e-4]);
        assert!(a.approx_eq(&b, 1e-5, 1e-5));
        let c = Matrix::from_vec(1, 2, vec![1.1, 100.0]);
        assert!(!a.approx_eq(&c, 1e-5, 1e-5));
    }

    #[test]
    #[should_panic]
    fn zip_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = a.add(&b);
    }
}
