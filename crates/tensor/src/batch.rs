//! Contiguous batched matrices.
//!
//! Multi-head attention operates on `batch × heads` independent matrices of
//! identical shape. [`Batch3`] stores them in one contiguous allocation
//! (`[n, rows, cols]` row-major) so batched GEMMs parallelise over slots with
//! rayon and so the ABFT encoding kernel sees the exact strided layout the
//! paper's custom GPU encoder is built around (§4.6).

use crate::gemm;
use crate::matrix::Matrix;
use crate::view::{MatMut, MatRef};
use rayon::prelude::*;

/// A batch of `n` dense `rows × cols` matrices in one contiguous buffer.
#[derive(Clone, PartialEq, Debug)]
pub struct Batch3 {
    n: usize,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Batch3 {
    /// All-zeros batch.
    pub fn zeros(n: usize, rows: usize, cols: usize) -> Self {
        Self {
            n,
            rows,
            cols,
            data: vec![0.0; n * rows * cols],
        }
    }

    /// Build from `n` equally-shaped matrices (copied into one buffer).
    ///
    /// # Panics
    /// Panics if the shapes disagree or `mats` is empty.
    pub fn from_matrices(mats: &[Matrix]) -> Self {
        assert!(!mats.is_empty(), "Batch3::from_matrices: empty");
        let (rows, cols) = (mats[0].rows(), mats[0].cols());
        let mut data = Vec::with_capacity(mats.len() * rows * cols);
        for m in mats {
            assert_eq!((m.rows(), m.cols()), (rows, cols), "shape mismatch");
            data.extend_from_slice(m.data());
        }
        Self {
            n: mats.len(),
            rows,
            cols,
            data,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows per slot.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per slot.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whole underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Stride (elements) between consecutive slots.
    #[inline]
    fn slot_len(&self) -> usize {
        self.rows * self.cols
    }

    /// Immutable view of slot `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> MatRef<'_> {
        let s = self.slot_len();
        MatRef::new(&self.data[i * s..(i + 1) * s], self.rows, self.cols)
    }

    /// Mutable view of slot `i`.
    #[inline]
    pub fn slot_mut(&mut self, i: usize) -> MatMut<'_> {
        let s = self.slot_len();
        MatMut::new(&mut self.data[i * s..(i + 1) * s], self.rows, self.cols)
    }

    /// Copy slot `i` into an owned [`Matrix`].
    pub fn slot_matrix(&self, i: usize) -> Matrix {
        let s = self.slot_len();
        Matrix::from_vec(self.rows, self.cols, self.data[i * s..(i + 1) * s].to_vec())
    }

    /// Overwrite slot `i` from a matrix of matching shape.
    pub fn set_slot(&mut self, i: usize, m: &Matrix) {
        assert_eq!((m.rows(), m.cols()), (self.rows, self.cols));
        let s = self.slot_len();
        self.data[i * s..(i + 1) * s].copy_from_slice(m.data());
    }

    /// Run `f` on every `(index, mutable slot buffer)` pair in parallel.
    pub fn par_for_each_slot(&mut self, f: impl Fn(usize, &mut [f32]) + Sync + Send) {
        let s = self.slot_len();
        self.data
            .par_chunks_mut(s)
            .enumerate()
            .for_each(|(i, buf)| f(i, buf));
    }

    /// True if every element across all slots is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Batched `C[i] = A[i] · B[i]`, parallel over slots.
///
/// # Panics
/// Panics if slot counts or inner dimensions disagree.
pub fn batch_matmul(a: &Batch3, b: &Batch3) -> Batch3 {
    assert_eq!(a.n(), b.n(), "batch_matmul: slot count");
    assert_eq!(a.cols(), b.rows(), "batch_matmul: inner dims");
    let mut c = Batch3::zeros(a.n(), a.rows(), b.cols());
    let (ar, ac, bc) = (a.rows(), a.cols(), b.cols());
    let (sa, sb) = (a.slot_len(), b.slot_len());
    let sc = c.slot_len();
    let a_data = a.data();
    let b_data = b.data();
    c.data_mut()
        .par_chunks_mut(sc)
        .enumerate()
        .for_each(|(i, cbuf)| {
            let av = MatRef::new(&a_data[i * sa..(i + 1) * sa], ar, ac);
            let bv = MatRef::new(&b_data[i * sb..(i + 1) * sb], ac, bc);
            gemm::matmul_into(av, bv, MatMut::new(cbuf, ar, bc));
        });
    c
}

/// Batched `C[i] = A[i] · B[i]ᵀ`, parallel over slots.
pub fn batch_matmul_nt(a: &Batch3, b: &Batch3) -> Batch3 {
    assert_eq!(a.n(), b.n(), "batch_matmul_nt: slot count");
    assert_eq!(a.cols(), b.cols(), "batch_matmul_nt: inner dims");
    let mut c = Batch3::zeros(a.n(), a.rows(), b.rows());
    let (ar, ac, br) = (a.rows(), a.cols(), b.rows());
    let (sa, sb) = (a.slot_len(), b.slot_len());
    let sc = c.slot_len();
    let a_data = a.data();
    let b_data = b.data();
    c.data_mut()
        .par_chunks_mut(sc)
        .enumerate()
        .for_each(|(i, cbuf)| {
            let av = MatRef::new(&a_data[i * sa..(i + 1) * sa], ar, ac);
            let bv = MatRef::new(&b_data[i * sb..(i + 1) * sb], br, ac);
            gemm::matmul_nt_into(av, bv, MatMut::new(cbuf, ar, br));
        });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn slots_round_trip() {
        let mut rng = TensorRng::seed_from(31);
        let mats: Vec<Matrix> = (0..4).map(|_| rng.normal_matrix(3, 5, 1.0)).collect();
        let b = Batch3::from_matrices(&mats);
        assert_eq!(b.n(), 4);
        for (i, m) in mats.iter().enumerate() {
            assert_eq!(&b.slot_matrix(i), m);
        }
    }

    #[test]
    fn set_slot_overwrites() {
        let mut b = Batch3::zeros(2, 2, 2);
        let m = Matrix::full(2, 2, 3.0);
        b.set_slot(1, &m);
        assert_eq!(b.slot_matrix(1), m);
        assert!(crate::float::all_exactly_zero(b.slot_matrix(0).data()));
    }

    #[test]
    fn batch_matmul_matches_per_slot() {
        let mut rng = TensorRng::seed_from(37);
        let a_m: Vec<Matrix> = (0..6).map(|_| rng.normal_matrix(4, 7, 1.0)).collect();
        let b_m: Vec<Matrix> = (0..6).map(|_| rng.normal_matrix(7, 5, 1.0)).collect();
        let a = Batch3::from_matrices(&a_m);
        let b = Batch3::from_matrices(&b_m);
        let c = batch_matmul(&a, &b);
        for i in 0..6 {
            let expect = gemm::matmul(&a_m[i], &b_m[i]);
            assert!(c.slot_matrix(i).approx_eq(&expect, 1e-5, 1e-6), "slot {i}");
        }
    }

    #[test]
    fn batch_matmul_nt_matches_per_slot() {
        let mut rng = TensorRng::seed_from(41);
        let a_m: Vec<Matrix> = (0..3).map(|_| rng.normal_matrix(4, 6, 1.0)).collect();
        let b_m: Vec<Matrix> = (0..3).map(|_| rng.normal_matrix(5, 6, 1.0)).collect();
        let a = Batch3::from_matrices(&a_m);
        let b = Batch3::from_matrices(&b_m);
        let c = batch_matmul_nt(&a, &b);
        for i in 0..3 {
            let expect = gemm::matmul_nt(&a_m[i], &b_m[i]);
            assert!(c.slot_matrix(i).approx_eq(&expect, 1e-5, 1e-6), "slot {i}");
        }
    }

    #[test]
    fn par_for_each_slot_touches_every_slot() {
        let mut b = Batch3::zeros(8, 2, 2);
        b.par_for_each_slot(|i, buf| buf.fill(i as f32));
        for i in 0..8 {
            assert!(b.slot_matrix(i).data().iter().all(|&x| x == i as f32));
        }
    }

    #[test]
    fn all_finite_scans_whole_buffer() {
        let mut b = Batch3::zeros(3, 2, 2);
        assert!(b.all_finite());
        b.slot_mut(2).set(1, 1, f32::NAN);
        assert!(!b.all_finite());
    }
}
