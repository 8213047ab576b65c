//! Property tests for the packed register-tiled GEMM kernels: numerical
//! agreement with the naive reference, bit-determinism at any rayon worker
//! count, IEEE-754 propagation faithfulness (no zero-skipping shortcuts),
//! the fused-encoding ≡ encode-then-GEMM bit identity, and the
//! accumulation-order contract (`attn_tensor::contract`) that exact
//! post-correction replay (`attnchecker::section::replay_nn`) and every
//! checksum border depend on.

#![allow(
    clippy::disallowed_methods,
    reason = "the raw kernels are this suite's subject"
)]

use attn_tensor::contract;
use attn_tensor::gemm::{
    self, gemm_encode_cols_into, gemm_encode_cols_paged_into, matmul, matmul_naive, matmul_nt,
    matmul_tn, KC, MC, NC, NR,
};
use attn_tensor::kv::PagedKv;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::checked::{CheckedMatrix, ProductKind};
use attnchecker::config::Strategy as AbftStrategy;
use attnchecker::section::replay_nn;
use proptest::prelude::*;

fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-5.0f32..5.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// [`bits_equal`] for operands carrying IEEE specials: every NaN is one
/// value (which payload an operation propagates is not specified — by
/// IEEE-754 or by Rust — so it is not part of any contract), everything
/// else, signed zeros and infinities included, compares by bits.
fn bits_equal_mod_nan_payload(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// One value, compared like [`bits_equal_mod_nan_payload`].
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// `m × k` and `k × n` operands with `specials` IEEE specials dropped
/// anywhere in each.
fn operands_with_specials(
    rng: &mut TensorRng,
    (m, k, n): (usize, usize, usize),
    specials: usize,
) -> (Matrix, Matrix) {
    const SPECIALS: [f32; 4] = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut a = rng.uniform_matrix(m, k, -2.0, 2.0);
    let mut b = rng.uniform_matrix(k, n, -2.0, 2.0);
    for _ in 0..specials {
        a[(rng.index(m), rng.index(k))] = SPECIALS[rng.index(4)];
        b[(rng.index(k), rng.index(n))] = SPECIALS[rng.index(4)];
    }
    (a, b)
}

/// Both fused column-side entries (dense `B`, and `B` paged in
/// `block_rows`-row blocks) against the reference they promise to equal:
/// standalone `encode_cols(A)`, then the plain packed product of the
/// augmented matrix.
fn fused_cols_vs_encode_then_matmul(a: &Matrix, b: &Matrix, block_rows: usize) -> bool {
    let staged = CheckedMatrix::product(
        &CheckedMatrix::encode_cols(a, AbftStrategy::Fused),
        b,
        ProductKind::Nn,
    );
    let mut dense = Matrix::full(a.rows() + 2, b.cols(), f32::NAN);
    gemm_encode_cols_into(a.view(), b.view(), dense.view_mut());
    let mut kv = PagedKv::new(b.cols(), 0, block_rows);
    for r in 0..b.rows() {
        kv.push_row(b.row(r));
    }
    let mut paged = Matrix::full(a.rows() + 2, b.cols(), f32::NAN);
    gemm_encode_cols_paged_into(a.view(), &kv, paged.view_mut());
    bits_equal_mod_nan_payload(&dense, staged.buf())
        && bits_equal_mod_nan_payload(&paged, staged.buf())
}

/// Run `f` inside a rayon pool of `threads` workers.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool")
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) The tiled kernel agrees with the triple-loop reference within
    /// accumulation round-off, across sizes straddling MR/NR/MC/NC edges.
    #[test]
    fn tiled_matches_naive(a in matrix(1..40, 1..40), n in 1usize..40, seed in 0u64..1000) {
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.uniform_matrix(a.cols(), n, -2.0, 2.0);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        let scale = a.cols() as f32;
        prop_assert!(c.approx_eq(&r, 1e-4, 1e-4 * scale.max(1.0)));
    }

    /// The NT and TN layouts match their explicit-transpose compositions —
    /// including inner dimensions that span several KC blocks (the shape
    /// class the old NT kernel streamed unblocked).
    #[test]
    fn nt_tn_match_transposed_compositions(
        m in 1usize..12,
        n in 1usize..12,
        k in 1usize..300,
        seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let bt = rng.uniform_matrix(n, k, -1.0, 1.0);
        let c = matmul_nt(&a, &bt);
        let r = matmul_naive(&a, &bt.transpose());
        prop_assert!(c.approx_eq(&r, 1e-4, 1e-4 * (k as f32)));

        let at = rng.uniform_matrix(k, m, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let c2 = matmul_tn(&at, &b);
        let r2 = matmul_naive(&at.transpose(), &b);
        prop_assert!(c2.approx_eq(&r2, 1e-4, 1e-4 * (k as f32)));
    }

    /// (b) Small-size determinism: worker count can never change bits
    /// (below the parallel threshold the grid is sequential, so this is
    /// the trivial half of the property — the load-bearing half is the
    /// dedicated large-matrix test below).
    #[test]
    fn pool_size_is_invisible_small(a in matrix(1..20, 1..20), n in 1usize..20) {
        let b = Matrix::from_fn(a.cols(), n, |r, c| ((r * 5 + c) % 9) as f32 / 3.0 - 1.0);
        let c1 = with_pool(1, || matmul(&a, &b));
        let c3 = with_pool(3, || matmul(&a, &b));
        prop_assert!(bits_equal(&c1, &c3));
    }

    /// (c) IEEE propagation faithfulness: a NaN anywhere in A poisons
    /// exactly its output row — and a *zero* in A multiplied by a NaN in B
    /// still produces NaN (`0 × NaN = NaN`), which a sparsity shortcut
    /// would silently skip.
    #[test]
    fn nan_propagation_is_faithful(
        m in 1usize..20,
        k in 1usize..150,
        n in 1usize..20,
        rf in 0.0f64..1.0,
        kf in 0.0f64..1.0,
    ) {
        let r0 = ((rf * m as f64) as usize).min(m - 1);
        let k0 = ((kf * k as f64) as usize).min(k - 1);
        // NaN in A.
        let mut a = Matrix::full(m, k, 1.0);
        a[(r0, k0)] = f32::NAN;
        let b = Matrix::full(k, n, 1.0);
        let c = matmul(&a, &b);
        for j in 0..n {
            prop_assert!(c[(r0, j)].is_nan(), "row {r0} col {j} escaped NaN");
        }
        for r in 0..m {
            if r != r0 {
                prop_assert!(c.row(r).iter().all(|x| x.is_finite()));
            }
        }
        // Zero in A against NaN in B: no zero-skipping allowed.
        let mut az = Matrix::full(m, k, 1.0);
        az[(r0, k0)] = 0.0;
        let mut bz = Matrix::full(k, n, 1.0);
        bz[(k0, 0)] = f32::NAN;
        let cz = matmul(&az, &bz);
        prop_assert!(cz[(r0, 0)].is_nan(), "0 * NaN must stay NaN");
    }

    /// INF propagates with its sign through every layout.
    #[test]
    fn inf_propagation_keeps_sign(
        m in 1usize..10,
        k in 1usize..60,
        n in 1usize..10,
        negative in 0usize..2,
    ) {
        let inf = if negative == 1 { f32::NEG_INFINITY } else { f32::INFINITY };
        let mut a = Matrix::full(m, k, 1.0);
        a[(0, 0)] = inf;
        let b = Matrix::full(k, n, 1.0);
        let c = matmul(&a, &b);
        for j in 0..n {
            prop_assert_eq!(c[(0, j)], inf);
        }
    }

    /// Fused-encoding output is bit-identical to encode-then-GEMM, across
    /// sizes spanning the MC/KC block edges.
    #[test]
    fn fused_encoding_equals_encode_then_gemm(
        m in 1usize..150,
        k in 1usize..40,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);

        let mut fused_c = Matrix::zeros(m + 2, n);
        gemm_encode_cols_into(a.view(), b.view(), fused_c.view_mut());
        let ca = CheckedMatrix::encode_cols(&a, AbftStrategy::Fused);
        let staged_c = CheckedMatrix::product(&ca, &b, ProductKind::Nn);
        prop_assert!(bits_equal(&fused_c, staged_c.buf()), "cols side");
    }

    /// The lane-riding border (m = 1, 2, 5, 6, 9, 10 — the checksum rows
    /// share `A`'s last micro-panel) and the streaming border (m = 3, 4, 7,
    /// 8) are the same function: bit-identical to `encode_cols(A)` → plain
    /// product, dense or paged `B`, with k and n on and around the
    /// KC / NC / NR edges and IEEE specials anywhere in either operand. A
    /// NaN or INF in `B` must reach the checksum rows exactly as it reaches
    /// rows of an augmented `A` (`0 × NaN` included: no lane is skipped).
    #[test]
    fn fused_cols_border_equals_encode_then_gemm_at_decode_shapes(
        m in 1usize..11,
        ki in 0usize..6,
        ni in 0usize..8,
        bi in 0usize..6,
        specials in 0usize..4,
        seed in 0u64..100_000,
    ) {
        let k = [1, 7, KC - 1, KC, KC + 1, 2 * KC + 5][ki];
        let n = [1, NR - 1, NR, NR + 1, NC - 1, NC, NC + 1, NC + NR + 3][ni];
        let block_rows = [1, 3, 5, 16, 64, 100][bi];
        let mut rng = TensorRng::seed_from(seed);
        let (a, b) = operands_with_specials(&mut rng, (m, k, n), specials);
        prop_assert!(
            fused_cols_vs_encode_then_matmul(&a, &b, block_rows),
            "{}x{}x{} block_rows={} specials={}", m, k, n, block_rows, specials
        );
    }

    /// The kernel's own statements of the accumulation order, pinned to the
    /// one module that owns it: a 1×k×1 product (the microkernel under
    /// `compute_tile`'s KC loop) is `contract::dot`; the column-side border
    /// — riding the padding lanes (m = 1, 2, MC + 1) or streamed through
    /// `encode_border_cols`' row-major sweep (m = 3, MC) — is
    /// `contract::dot` over `contract::col_sums(A)`. Shapes ragged across
    /// the KC / NC / MC edges, IEEE specials anywhere.
    #[test]
    fn fused_borders_are_compositions_of_contract_functions(
        mi in 0usize..7,
        ki in 0usize..6,
        ni in 0usize..6,
        specials in 0usize..4,
        seed in 0u64..100_000,
    ) {
        let m = [1, 2, 3, MC - 1, MC, MC + 1, 2 * MC + 3][mi];
        let k = [1, 7, KC - 1, KC, KC + 1, 2 * KC + 5][ki];
        let n = [1, NR + 1, NC - 1, NC, NC + 1, 2 * NC + 3][ni];
        let mut rng = TensorRng::seed_from(seed);
        let (a, b) = operands_with_specials(&mut rng, (m, k, n), specials);
        let bt = b.transpose();

        let one = matmul(&a.submatrix(0, 1, 0, k), &b.submatrix(0, k, 0, 1));
        prop_assert!(same_bits(one[(0, 0)], contract::dot(a.row(0), bt.row(0))), "1xkx1");

        let mut c = Matrix::full(m + 2, n, f32::NAN);
        gemm_encode_cols_into(a.view(), b.view(), c.view_mut());
        let mut cs = vec![f32::NAN; 2 * k];
        contract::col_sums(a.view(), 0..k, &mut cs);
        for j in 0..n {
            prop_assert!(same_bits(c[(m, j)], contract::dot(&cs[..k], bt.row(j))), "cols Σ {}", j);
            prop_assert!(same_bits(c[(m + 1, j)], contract::dot(&cs[k..], bt.row(j))), "cols Σw {}", j);
        }
    }

    /// The exact-replay contract: `replay_nn` reproduces any product
    /// element bit-for-bit, for inner dimensions crossing KC blocks.
    #[test]
    fn replay_reproduces_kernel_bits(
        m in 1usize..8,
        k in 1usize..300,
        n in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let c = matmul(&a, &b);
        for r in 0..m {
            for j in 0..n {
                let replayed = replay_nn(a.row(r), |kk| b[(kk, j)]);
                prop_assert_eq!(replayed.to_bits(), c[(r, j)].to_bits(), "({}, {})", r, j);
            }
        }
    }
}

/// (b), load-bearing half: a GEMM large enough to cross
/// [`gemm::PAR_FLOP_THRESHOLD`] runs on the parallel 2D tile grid, and its
/// every output bit is identical at 1, 3, and 8 workers (the tile
/// partition is deterministic and tiles never interact). Covers all three
/// layouts plus the fused encode.
#[test]
fn parallel_grid_is_bit_deterministic_across_worker_counts() {
    assert!(gemm::exceeds_par_threshold(272, 252, 256));
    let mut rng = TensorRng::seed_from(99);
    let a = rng.uniform_matrix(272, 256, -1.0, 1.0);
    let b = rng.uniform_matrix(256, 252, -1.0, 1.0);
    let bt = b.transpose();
    let at = a.transpose();

    let reference = with_pool(1, || matmul(&a, &b));
    let reference_enc = with_pool(1, || {
        let mut c = Matrix::zeros(274, 252);
        gemm_encode_cols_into(a.view(), b.view(), c.view_mut());
        c
    });
    for threads in [3usize, 8] {
        let c = with_pool(threads, || matmul(&a, &b));
        assert!(
            bits_equal(&c, &reference),
            "matmul bits differ at {threads} workers"
        );
        let cnt = with_pool(threads, || matmul_nt(&a, &bt));
        assert!(
            bits_equal(&cnt, &reference),
            "matmul_nt bits differ at {threads} workers"
        );
        let ctn = with_pool(threads, || matmul_tn(&at, &b));
        assert!(
            bits_equal(&ctn, &reference),
            "matmul_tn bits differ at {threads} workers"
        );
        let enc = with_pool(threads, || {
            let mut c = Matrix::zeros(274, 252);
            gemm_encode_cols_into(a.view(), b.view(), c.view_mut());
            c
        });
        assert!(
            bits_equal(&enc, &reference_enc),
            "fused encode bits differ at {threads} workers"
        );
    }
}

/// An `op(A)` of at most `MR` rows is packed once per call; a taller one is
/// packed tile by tile. Same rows, same bits: every product of `m ≤ 6` rows
/// (plain, and fused with its two riding rows) equals the leading rows of
/// the same product with `MR` more rows stacked under it — which no shape
/// here packs once — across one and many column tiles and `KC` blocks.
#[test]
fn packed_once_driver_equals_per_tile_packing() {
    const MR: usize = gemm::MR;
    let mut rng = TensorRng::seed_from(23);
    let per_tile = |x: &Matrix, b: &Matrix| {
        let tall = matmul(&x.vstack(&Matrix::zeros(MR + 2, x.cols())), b);
        tall.submatrix(0, x.rows(), 0, b.cols())
    };
    for m in 1..=6 {
        for n in [8usize, 63, 64, 65, 130, 512] {
            for k in [1usize, KC - 1, KC, KC + 1, 4 * KC] {
                let a = rng.uniform_matrix(m, k, -1.0, 1.0);
                let b = rng.uniform_matrix(k, n, -1.0, 1.0);
                assert!(
                    bits_equal(&matmul(&a, &b), &per_tile(&a, &b)),
                    "{m}x{k}x{n}"
                );
                let mut fused = Matrix::full(m + 2, n, f32::NAN);
                gemm_encode_cols_into(a.view(), b.view(), fused.view_mut());
                let aug = CheckedMatrix::encode_cols(&a, AbftStrategy::Fused);
                assert!(
                    bits_equal(&fused, &per_tile(aug.buf(), &b)),
                    "{m}x{k}x{n} fused"
                );
            }
        }
    }
}

/// The NN/NT/TN layouts share one accumulation contract: for identical
/// logical operands they produce identical bits.
#[test]
fn layouts_share_one_contract() {
    let mut rng = TensorRng::seed_from(7);
    let a = rng.uniform_matrix(9, 2 * KC + 31, -1.0, 1.0);
    let b = rng.uniform_matrix(2 * KC + 31, 11, -1.0, 1.0);
    let nn = matmul(&a, &b);
    let nt = matmul_nt(&a, &b.transpose());
    let tn = matmul_tn(&a.transpose(), &b);
    assert!(bits_equal(&nn, &nt), "NT disagrees with NN bitwise");
    assert!(bits_equal(&nn, &tn), "TN disagrees with NN bitwise");
}

/// The standalone encoders mirror the in-packing block contract even when
/// the operand spans several MC row-blocks — the hinge of the
/// fused-vs-standalone bit identity.
#[test]
fn standalone_encoder_matches_fused_projection_across_blocks() {
    use attnchecker::checksum::col_checksums;
    let mut rng = TensorRng::seed_from(13);
    let a = rng.uniform_matrix(3 * MC + 17, 9, -1.0, 1.0);
    let id = Matrix::identity(9);
    // Identity right operand: the fused border *is* CS_A itself.
    let mut c = Matrix::zeros(a.rows() + 2, 9);
    gemm_encode_cols_into(a.view(), id.view(), c.view_mut());
    let cs = col_checksums(&a);
    for j in 0..9 {
        // The border went through the streaming product against I, which
        // multiplies each projection by exactly 1.0 and sums one term per
        // KC block — equal to the projection value itself only up to the
        // block re-summation, so compare the projections numerically.
        assert!(
            (c[(a.rows(), j)] - cs[(0, j)]).abs() <= 1e-3 * (1.0 + cs[(0, j)].abs()),
            "projection {j} drifted"
        );
    }
}

/// One shape each side of the border predicate — m = 2 rides the padding
/// lanes; m = 3 and m = 64 (and m = 32, prefill) stream — all landing on
/// the bits of the one reference both mechanisms are defined by, with a
/// NaN in `B` and a `-0.0` in `A` along for the ride.
#[test]
fn both_border_mechanisms_land_on_the_augmented_product() {
    let mut rng = TensorRng::seed_from(17);
    for &m in &[2usize, 3, 32, MC] {
        let (k, n) = (KC + 13, NC + 5);
        let mut a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let mut b = rng.uniform_matrix(k, n, -1.0, 1.0);
        a[(m - 1, 3)] = -0.0;
        b[(KC + 2, n - 1)] = f32::NAN;
        assert!(
            fused_cols_vs_encode_then_matmul(&a, &b, 16),
            "m={m}: fused border left the augmented-product bits"
        );
        // The NaN reached the checksum rows of exactly its column.
        let mut c = Matrix::zeros(m + 2, n);
        gemm_encode_cols_into(a.view(), b.view(), c.view_mut());
        for r in m..m + 2 {
            assert!(
                c[(r, n - 1)].is_nan(),
                "m={m}: NaN in B missed checksum row {r}"
            );
            assert!(c.row(r)[..n - 1].iter().all(|v| v.is_finite()));
        }
    }
}
