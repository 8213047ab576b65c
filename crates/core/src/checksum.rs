//! Dual-checksum encoding primitives (paper §2.3).
//!
//! A matrix `A` is protected by two weight vectors: the unweighted
//! `v1 = [1, 1, …, 1]ᵀ` and the weighted `v2 = [1, 2, …, n]ᵀ`. Column
//! checksums are the two row-vectors `v1ᵀA` and `v2ᵀA`; row checksums the
//! two column-vectors `A·v1` and `A·v2`. Together a (checksum, weighted
//! checksum) pair both *detects* an error (δ1 ≠ 0) and *locates* it
//! (δ2/δ1 = weighted index).
//!
//! Two encoder implementations coexist:
//!
//! * [`col_checksums`] / [`row_checksums`] — single fused pass over the
//!   data computing both weight projections at once (what the paper's
//!   custom GPU encoder achieves with shared-memory staging: one read of
//!   `A` produces both sums). This is the §4.6-optimized path.
//! * [`col_checksums_naive`] — two *separate* GEMV-style passes with their
//!   own temporary allocations, mimicking the strided cuBLAS composition
//!   the paper benchmarks against in Fig 9 (cuBLAS reads `A` twice and
//!   launches twice).
//!
//! **Accumulation-order contract.** The packed GEMM kernels produce the
//! same projections *inside their packing pass*
//! (`attn_tensor::gemm::gemm_encode_cols_into` / `gemm_encode_rows_into`).
//! The standalone encoders here call the one statement of that blocked
//! order, [`attn_tensor::contract`], so a fused encoding is bit-identical
//! to encode-then-GEMM — the property `CheckedMatrix::product` and the
//! exact-replay machinery rely on.

use attn_tensor::{contract, Matrix};

pub use attn_tensor::contract::weight;

/// Compute column checksums of `a`: a `2 × cols` matrix whose row 0 is
/// `v1ᵀA` (plain column sums) and row 1 is `v2ᵀA` (weighted column sums).
///
/// Single pass over `a`, both projections accumulating together under
/// [`contract::col_sums`] — bit-identical to the fused in-packing encoder
/// of the packed GEMM (see module docs).
pub fn col_checksums(a: &Matrix) -> Matrix {
    let mut cs = Matrix::zeros(2, a.cols());
    contract::col_sums(a.view(), 0..a.cols(), cs.data_mut());
    cs
}

/// Compute row checksums of `a`: an `rows × 2` matrix whose column 0 is
/// `A·v1` and column 1 is `A·v2`. Single pass over `a`, each row under
/// [`contract::row_sums`] (the fused-encoder contract).
pub fn row_checksums(a: &Matrix) -> Matrix {
    let mut cs = Matrix::zeros(a.rows(), 2);
    for r in 0..a.rows() {
        let (s, ws) = contract::row_sums(a.row(r));
        cs.row_mut(r).copy_from_slice(&[s, ws]);
    }
    cs
}

/// Naive column-checksum encoder: two independent full passes (one per
/// weight vector), each with its own temporary — the memory-traffic pattern
/// of composing two cuBLAS GEMV calls.
#[allow(clippy::needless_range_loop)] // the two explicit passes are the point
pub fn col_checksums_naive(a: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    // Pass 1: unweighted.
    let mut sum = vec![0.0f32; n];
    for r in 0..m {
        for (acc, &v) in sum.iter_mut().zip(a.row(r)) {
            *acc += v;
        }
    }
    // Pass 2: weighted — reads A again from scratch.
    let mut wsum = vec![0.0f32; n];
    for r in 0..m {
        let w = weight(r);
        for (acc, &v) in wsum.iter_mut().zip(a.row(r)) {
            *acc += w * v;
        }
    }
    let mut cs = Matrix::zeros(2, n);
    cs.row_mut(0).copy_from_slice(&sum);
    cs.row_mut(1).copy_from_slice(&wsum);
    cs
}

/// Batched column-checksum encoding over a [`attn_tensor::Batch3`]: one `2 × cols`
/// checksum block per slot, computed with a single fused pass per slot and
/// the slots fanned out in parallel — the CPU analogue of the paper's
/// custom encoder that "parallelizes along the SMs by number of heads ×
/// number of batches" (§4.6).
pub fn col_checksums_batch(batch: &attn_tensor::Batch3) -> attn_tensor::Batch3 {
    use rayon::prelude::*;
    let (n, rows, cols) = (batch.n(), batch.rows(), batch.cols());
    let mut out = attn_tensor::Batch3::zeros(n, 2, cols);
    let src = batch.data();
    let slot_in = rows * cols;
    out.data_mut()
        .par_chunks_mut(2 * cols)
        .enumerate()
        .for_each(|(i, dst)| {
            let slot = &src[i * slot_in..(i + 1) * slot_in];
            let (sum_row, wsum_row) = dst.split_at_mut(cols);
            for r in 0..rows {
                let w = weight(r);
                let row = &slot[r * cols..(r + 1) * cols];
                for c in 0..cols {
                    // attn-lint: allow(nondet-reduce) — sequential loop over this slot's disjoint chunk; merge order is fixed
                    sum_row[c] += row[c];
                    // attn-lint: allow(nondet-reduce) — sequential loop over this slot's disjoint chunk; merge order is fixed
                    wsum_row[c] += w * row[c];
                }
            }
        });
    out
}

/// Naive batched encoder: two sequential passes per slot with a temporary
/// per pass (the cuBLAS-composition traffic pattern), no slot parallelism —
/// the Fig 9 baseline.
pub fn col_checksums_batch_naive(batch: &attn_tensor::Batch3) -> attn_tensor::Batch3 {
    let (n, _rows, cols) = (batch.n(), batch.rows(), batch.cols());
    let mut out = attn_tensor::Batch3::zeros(n, 2, cols);
    for i in 0..n {
        let m = batch.slot_matrix(i);
        let cs = col_checksums_naive(&m);
        out.set_slot(i, &cs);
    }
    out
}

/// Recompute the (unweighted, weighted, absolute) sums of a vector in one
/// pass. The absolute sum feeds the round-off detection bound.
#[inline]
pub fn vector_sums(v: &[f32]) -> (f32, f32, f32) {
    let mut s = 0.0f32;
    let mut ws = 0.0f32;
    let mut abs = 0.0f32;
    for (i, &x) in v.iter().enumerate() {
        s += x;
        ws += weight(i) * x;
        abs += x.abs();
    }
    (s, ws, abs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_tensor::gemm::matmul;
    use attn_tensor::rng::TensorRng;

    fn weights_matrix(m: usize) -> Matrix {
        // [v1ᵀ; v2ᵀ] as a 2×m matrix for reference computations.
        Matrix::from_fn(2, m, |r, c| if r == 0 { 1.0 } else { weight(c) })
    }

    #[test]
    fn col_checksums_equal_explicit_projection() {
        let mut rng = TensorRng::seed_from(1);
        let a = rng.normal_matrix(9, 6, 1.0);
        let cs = col_checksums(&a);
        let expect = matmul(&weights_matrix(9), &a);
        assert!(cs.approx_eq(&expect, 1e-5, 1e-5));
    }

    #[test]
    fn row_checksums_equal_explicit_projection() {
        let mut rng = TensorRng::seed_from(2);
        let a = rng.normal_matrix(7, 11, 1.0);
        let cs = row_checksums(&a);
        let expect = matmul(&a, &weights_matrix(11).transpose());
        assert!(cs.approx_eq(&expect, 1e-5, 1e-5));
    }

    #[test]
    fn naive_and_fused_encoders_agree() {
        let mut rng = TensorRng::seed_from(3);
        let a = rng.normal_matrix(13, 8, 2.0);
        assert!(col_checksums(&a).approx_eq(&col_checksums_naive(&a), 1e-5, 1e-5));
    }

    #[test]
    fn checksum_linearity_through_gemm() {
        // The ABFT invariant: colsum(A·B) == colsum-rows-of-A · B.
        let mut rng = TensorRng::seed_from(4);
        let a = rng.normal_matrix(6, 5, 1.0);
        let b = rng.normal_matrix(5, 7, 1.0);
        let c = matmul(&a, &b);
        let via_product = matmul(&col_checksums(&a), &b);
        assert!(col_checksums(&c).approx_eq(&via_product, 2e-4, 2e-4));

        let via_product_r = matmul(&a, &row_checksums(&b));
        assert!(row_checksums(&c).approx_eq(&via_product_r, 2e-4, 2e-4));
    }

    #[test]
    fn vector_sums_consistency() {
        let v = [1.0f32, -2.0, 3.0];
        let (s, ws, abs) = vector_sums(&v);
        assert_eq!(s, 2.0);
        assert_eq!(ws, 1.0 - 4.0 + 9.0);
        assert_eq!(abs, 6.0);
    }

    #[test]
    fn single_error_localisation_identity() {
        // δ2/δ1 equals the 1-based index of a single corrupted element.
        let mut rng = TensorRng::seed_from(5);
        let a = rng.normal_matrix(1, 16, 1.0);
        let (s0, ws0, _) = vector_sums(a.row(0));
        for idx in [0usize, 3, 15] {
            let mut v = a.row(0).to_vec();
            v[idx] += 7.5;
            let (s1, ws1, _) = vector_sums(&v);
            let d1 = s0 - s1;
            let d2 = ws0 - ws1;
            let located = (d2 / d1).round() as usize;
            assert_eq!(located, idx + 1);
        }
    }

    #[test]
    fn empty_matrix_checksums() {
        let a = Matrix::zeros(0, 4);
        let cs = col_checksums(&a);
        assert_eq!((cs.rows(), cs.cols()), (2, 4));
        assert!(attn_tensor::float::all_exactly_zero(cs.data()));
    }

    #[test]
    fn batched_encoders_match_per_slot_encoding() {
        use attn_tensor::Batch3;
        let mut rng = TensorRng::seed_from(8);
        let mats: Vec<Matrix> = (0..6).map(|_| rng.normal_matrix(16, 8, 1.0)).collect();
        let batch = Batch3::from_matrices(&mats);
        let fused = col_checksums_batch(&batch);
        let naive = col_checksums_batch_naive(&batch);
        for (i, m) in mats.iter().enumerate() {
            let expect = col_checksums(m);
            assert!(
                fused.slot_matrix(i).approx_eq(&expect, 1e-5, 1e-5),
                "fused slot {i}"
            );
            assert!(
                naive.slot_matrix(i).approx_eq(&expect, 1e-5, 1e-5),
                "naive slot {i}"
            );
        }
    }
}
