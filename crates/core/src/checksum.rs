//! Dual-checksum encoding primitives (paper §2.3).
//!
//! A matrix `A` is protected by two weight vectors: the unweighted
//! `v1 = [1, 1, …, 1]ᵀ` and the weighted `v2 = [1, 2, …, n]ᵀ`. Column
//! checksums are the two row-vectors `v1ᵀA` and `v2ᵀA`; row checksums the
//! two column-vectors `A·v1` and `A·v2`. Together a (checksum, weighted
//! checksum) pair both *detects* an error (δ1 ≠ 0) and *locates* it
//! (δ2/δ1 = weighted index).
//!
//! Guarded products never call these encoders: the packed GEMM kernel
//! produces both column projections *inside its packing pass*
//! (`attn_tensor::gemm::gemm_encode_cols_into` and its paged twin), one
//! read of `A` for both sums — the paper's §4.6 fused encoder; row
//! borders come from the KV cache. [`col_checksums`] is the standalone
//! reference the fused entries are tested against; it and
//! [`row_checksums`] are the encoders behind `CheckedMatrix::encode_*`
//! for operands encoded outside a product.
//!
//! **Accumulation-order contract.** Both standalone encoders call the one
//! statement of the kernels' blocked order, [`attn_tensor::contract`], so a
//! fused encoding is bit-identical to encode-then-GEMM — the property
//! `CheckedMatrix::product` and the exact-replay machinery rely on.

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
#[allow(
    clippy::disallowed_methods,
    reason = "tests check guarded products against the raw kernels"
)]
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
}
