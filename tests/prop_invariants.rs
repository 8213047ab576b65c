//! Property-based tests (proptest) over the core ABFT invariants.

#![allow(
    clippy::disallowed_methods,
    reason = "invariants are checked against the raw kernels and ops"
)]

use attn_fault::pattern::{classify, shape_of, PatternClass};
use attn_fault::FaultKind;
use attn_tensor::gemm;
use attn_tensor::ops::softmax_rows;
use attn_tensor::Matrix;
use attnchecker::checked::{CheckedMatrix, ProductKind};
use attnchecker::checksum::{col_checksums, vector_sums};
use attnchecker::config::{AbftConfig, Strategy as AbftStrategy};
use attnchecker::detect::full_correct;
use attnchecker::eec::{eec_correct_vector, VectorVerdict};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-5.0f32..5.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// EEC-ABFT corrects any single extreme error at any position.
    #[test]
    fn eec_corrects_any_single_extreme_fault(
        v in finite_vec(2..48),
        pos_frac in 0.0f64..1.0,
        kind_pick in 0usize..4,
    ) {
        let (csum, wsum, _) = vector_sums(&v);
        let pos = ((pos_frac * v.len() as f64) as usize).min(v.len() - 1);
        let kind = [FaultKind::Inf, FaultKind::NegInf, FaultKind::NaN, FaultKind::NearInf][kind_pick];
        let mut corrupted = v.clone();
        corrupted[pos] = kind.apply(corrupted[pos]);
        let verdict = eec_correct_vector(&mut corrupted, csum, wsum, &AbftConfig::default());
        let corrected_at_pos =
            matches!(verdict, VectorVerdict::Corrected { index, .. } if index == pos);
        prop_assert!(corrected_at_pos, "verdict {:?} at pos {} kind {:?}", verdict, pos, kind);
        // Reconstruction error is bounded by round-off on the partial sums.
        let tol = 1e-3 * (v.iter().map(|x| x.abs()).sum::<f32>() + 1.0);
        prop_assert!((corrupted[pos] - v[pos]).abs() <= tol,
            "restored {} vs original {}", corrupted[pos], v[pos]);
    }

    /// A clean vector is never flagged.
    #[test]
    fn eec_never_false_positives_on_clean_vectors(v in finite_vec(1..64)) {
        let (csum, wsum, _) = vector_sums(&v);
        let mut w = v.clone();
        let verdict = eec_correct_vector(&mut w, csum, wsum, &AbftConfig::default());
        prop_assert_eq!(verdict, VectorVerdict::Clean);
        prop_assert_eq!(w, v);
    }

    /// Checksum linearity: colsums(A·B) == colsum-rows(A)·B within round-off.
    #[test]
    fn checksum_linearity_through_random_gemm(
        a in matrix(1..12, 1..12),
        cols_b in 1usize..10,
    ) {
        let k = a.cols();
        let b = Matrix::from_fn(k, cols_b, |r, c| ((r * 7 + c * 3) % 11) as f32 / 11.0 - 0.5);
        let c = gemm::matmul(&a, &b);
        let direct = col_checksums(&c);
        let fused = gemm::matmul(&col_checksums(&a), &b);
        let scale = a.rows() as f32 * k as f32;
        prop_assert!(direct.approx_eq(&fused, 1e-3, 1e-3 * scale.max(1.0)));
    }

    /// Fused augmented GEMM always yields a self-consistent CheckedMatrix.
    #[test]
    fn fused_product_is_self_consistent(
        a in matrix(2..10, 2..10),
        cols_b in 2usize..10,
    ) {
        let b = Matrix::from_fn(a.cols(), cols_b, |r, c| ((r + 2 * c) % 7) as f32 / 7.0 - 0.4);
        let ca = CheckedMatrix::encode_cols(&a, AbftStrategy::Fused);
        let cb = CheckedMatrix::encode_rows(&b, AbftStrategy::Fused);
        let cc = CheckedMatrix::product(&ca, &cb, ProductKind::Nn);
        prop_assert!(cc.max_checksum_discrepancy() < 1e-2,
            "discrepancy {}", cc.max_checksum_discrepancy());
    }

    /// full_correct heals any single extreme fault planted anywhere in a
    /// doubly-checksummed matrix.
    #[test]
    fn full_correct_heals_any_single_fault(
        a in matrix(3..10, 3..10),
        rf in 0.0f64..1.0,
        cf in 0.0f64..1.0,
        kind_pick in 0usize..3,
    ) {
        let mut ca = CheckedMatrix::encode_both(&a, AbftStrategy::Fused);
        let r = ((rf * a.rows() as f64) as usize).min(a.rows() - 1);
        let c = ((cf * a.cols() as f64) as usize).min(a.cols() - 1);
        let kind = [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf][kind_pick];
        ca.set(r, c, kind.apply(ca.get(r, c)));
        let summary = full_correct(&mut ca, &AbftConfig::default());
        prop_assert_eq!(summary.unrecovered, 0);
        prop_assert!(summary.total_fixes() >= 1);
        prop_assert!(ca.logical().approx_eq(&a, 1e-2, 1e-2));
    }

    /// The pattern classifier recovers the shape of constructed patterns.
    #[test]
    fn classifier_recovers_constructed_shapes(
        rows in 3usize..12,
        cols in 3usize..12,
        row_pick in 0usize..12,
        col_pick in 0usize..12,
        shape in 0usize..3,
    ) {
        let reference = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 * 0.1);
        let mut corrupted = reference.clone();
        let r0 = row_pick % rows;
        let c0 = col_pick % cols;
        match shape {
            0 => corrupted[(r0, c0)] = f32::NAN,
            1 => {
                for c in 0..cols {
                    corrupted[(r0, c)] = f32::INFINITY;
                }
            }
            _ => {
                for r in 0..rows {
                    corrupted[(r, c0)] = f32::NAN;
                }
            }
        }
        let rep = classify(&reference, &corrupted, 1e-4);
        let ok = match shape {
            0 => rep.pattern == PatternClass::ZeroD { row: r0, col: c0 },
            1 => {
                matches!(rep.pattern, PatternClass::OneRow { row } if row == r0)
                    // A 1-column matrix makes a full row a single element.
                    || (cols == 1 && matches!(rep.pattern, PatternClass::ZeroD { .. }))
            }
            _ => {
                matches!(rep.pattern, PatternClass::OneCol { col } if col == c0)
                    || (rows == 1 && matches!(rep.pattern, PatternClass::ZeroD { .. }))
            }
        };
        prop_assert!(ok, "shape {} classified as {:?}", shape, rep.pattern);
    }

    /// shape_of is permutation-invariant.
    #[test]
    fn shape_of_is_order_invariant(
        mut positions in prop::collection::vec((0usize..8, 0usize..8), 0..12),
    ) {
        let forward = shape_of(&positions);
        positions.reverse();
        prop_assert_eq!(forward, shape_of(&positions));
    }

    /// Softmax output rows always form a probability distribution for
    /// finite inputs.
    #[test]
    fn softmax_rows_are_distributions(m in matrix(1..8, 1..16)) {
        let y = softmax_rows(&m);
        for r in 0..y.rows() {
            let s: f32 = y.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(y.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    /// GEMM distributes over addition: (A+B)·C == A·C + B·C.
    #[test]
    fn gemm_distributes_over_addition(
        a in matrix(1..8, 1..8),
        seed in 0u64..1000,
    ) {
        use attn_tensor::rng::TensorRng;
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.normal_matrix(a.rows(), a.cols(), 1.0);
        let c = rng.normal_matrix(a.cols(), 5, 1.0);
        let lhs = gemm::matmul(&a.add(&b), &c);
        let rhs = gemm::matmul(&a, &c).add(&gemm::matmul(&b, &c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-3, 1e-3));
    }
}
