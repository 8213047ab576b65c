//! Neural-network primitive operations (forward and backward forms).
//!
//! Attention needs a numerically-stable row softmax plus masking; the
//! surrounding transformer blocks need layer norm, GELU, and bias
//! broadcasting. Backward-pass helpers live here too so the hand-written
//! autodiff in `attn-model` stays thin.
//!
//! The ops with a `*_checked` twin in [`crate::guard`] (softmax, layer
//! norm, GELU, each with its backward) are crate-private, so rustc keeps
//! other crates on the twin; the twin under
//! [`OpGuard::off`](crate::OpGuard::off) is their unguarded form, with the
//! same bits. What stays public has no twin: bias, column sums, masks and
//! `argmax`.

use crate::matrix::Matrix;

/// In-place row-wise numerically-stable softmax:
/// `x[i,:] = softmax(x[i,:])`.
///
/// Uses the max-subtraction trick. IEEE special values behave as on GPU:
/// a `+INF` entry saturates its row to a one-hot; `NaN` poisons its row —
/// exactly the transitions catalogued in the paper's Table 2 (`1R-∞* → 1R-Θ`
/// through softmax).
///
/// A *fully-masked* row — every entry `-INF`, as causal/padding masks
/// produce for padded positions during batched decode — yields a
/// well-defined all-zero probability row: the token attends to nothing.
/// The naive max-subtraction path would fabricate NaNs out of a
/// well-formed mask (`exp(-INF − -INF) = NaN`), which downstream ABFT
/// detectors could only mis-attribute to a hardware fault. Genuine fault
/// propagation is preserved: a NaN entry still poisons its row even when
/// every other entry is `-INF`, and `+INF` still saturates through
/// `INF − INF = NaN` (the Table 2 transitions).
pub(crate) fn softmax_rows_inplace(x: &mut Matrix) {
    let cols = x.cols();
    if cols == 0 {
        return;
    }
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        let mut max = f32::NEG_INFINITY;
        for &v in row.iter() {
            // NaN comparisons are false, so NaN is skipped here and instead
            // poisons the row through exp()/sum below.
            if v > max {
                max = v;
            }
        }
        if max == f32::NEG_INFINITY {
            // Fully-masked row (or all-NaN/-INF mixture). Without finite
            // mass the distribution is defined as all-zero; a NaN entry
            // must keep poisoning so fault propagation stays observable.
            let fill = if row.iter().any(|v| v.is_nan()) {
                f32::NAN
            } else {
                0.0
            };
            row.fill(fill);
            continue;
        }
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if crate::float::exactly_zero(sum) {
            // Defensive: with a finite max the max element contributes
            // exp(0) = 1, so this cannot trigger today — but a zero
            // exp-sum must never turn into a 1/0 row of INFs.
            row.fill(0.0);
            continue;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Backward of row softmax: given `y = softmax(x)` and `dy`, returns `dx`
/// where `dx = y ⊙ (dy − rowsum(dy ⊙ y))`.
///
/// An all-zero `y` row (a fully-masked softmax row, see
/// [`softmax_rows_inplace`]) is a constant function of its inputs, so its
/// gradient is exactly zero — even against a non-finite `dy`, where the
/// naive `0 · NaN` product would smuggle NaNs into `dx`.
pub(crate) fn softmax_rows_backward(y: &Matrix, dy: &Matrix) -> Matrix {
    assert_eq!((y.rows(), y.cols()), (dy.rows(), dy.cols()));
    let mut dx = Matrix::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        let yr = y.row(r);
        if crate::float::all_exactly_zero(yr) {
            continue; // fully-masked row: d(const)/dx = 0
        }
        let dyr = dy.row(r);
        let s: f32 = yr.iter().zip(dyr).map(|(&a, &b)| a * b).sum();
        for (c, d) in dx.row_mut(r).iter_mut().enumerate() {
            *d = yr[c] * (dyr[c] - s);
        }
    }
    dx
}

/// Exact GELU activation `x · Φ(x)` using the erf-free tanh approximation
/// employed by Bert/GPT-2.
#[inline]
pub(crate) fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`].
#[inline]
fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Element-wise GELU backward: `dx = dy ⊙ gelu'(x)`.
pub(crate) fn gelu_backward(x: &Matrix, dy: &Matrix) -> Matrix {
    x.zip(dy, |xi, di| gelu_grad(xi) * di)
}

/// Add a bias row-vector to every row of `x` in place.
///
/// # Panics
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias_inplace(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), x.cols(), "bias length mismatch");
    for r in 0..x.rows() {
        for (v, &b) in x.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Column-wise sum of `x` — the bias gradient for a row-broadcast bias.
pub fn col_sums(x: &Matrix) -> Vec<f32> {
    let mut s = vec![0.0f32; x.cols()];
    for r in 0..x.rows() {
        for (acc, &v) in s.iter_mut().zip(x.row(r)) {
            *acc += v;
        }
    }
    s
}

/// Cached statistics from a layer-norm forward pass, needed by backward.
#[derive(Clone, Debug)]
pub struct LayerNormCache {
    /// Per-row mean of the input.
    pub mean: Vec<f32>,
    /// Per-row reciprocal standard deviation `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Normalised activations `(x - mean) * inv_std` before gamma/beta.
    pub normalized: Matrix,
}

/// Layer normalisation over the last dimension with learnable `gamma`/`beta`.
///
/// Returns the output and the cache required for [`layer_norm_backward`].
pub(crate) fn layer_norm(
    x: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> (Matrix, LayerNormCache) {
    let d = x.cols();
    assert_eq!(gamma.len(), d);
    assert_eq!(beta.len(), d);
    let mut out = Matrix::zeros(x.rows(), d);
    let mut mean = Vec::with_capacity(x.rows());
    let mut inv_std = Vec::with_capacity(x.rows());
    let mut normalized = Matrix::zeros(x.rows(), d);

    for r in 0..x.rows() {
        let row = x.row(r);
        let mu: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + eps).sqrt();
        mean.push(mu);
        inv_std.push(istd);
        for c in 0..d {
            let n = (row[c] - mu) * istd;
            normalized[(r, c)] = n;
            out[(r, c)] = n * gamma[c] + beta[c];
        }
    }
    (
        out,
        LayerNormCache {
            mean,
            inv_std,
            normalized,
        },
    )
}

/// Backward of [`layer_norm`].
///
/// Returns `(dx, dgamma, dbeta)`.
pub(crate) fn layer_norm_backward(
    dy: &Matrix,
    cache: &LayerNormCache,
    gamma: &[f32],
) -> (Matrix, Vec<f32>, Vec<f32>) {
    let (rows, d) = (dy.rows(), dy.cols());
    let mut dx = Matrix::zeros(rows, d);
    let mut dgamma = vec![0.0f32; d];
    let mut dbeta = vec![0.0f32; d];

    for r in 0..rows {
        let n_row = cache.normalized.row(r);
        let dy_row = dy.row(r);
        let istd = cache.inv_std[r];

        let mut sum_dyg = 0.0f32;
        let mut sum_dyg_n = 0.0f32;
        for c in 0..d {
            let dyg = dy_row[c] * gamma[c];
            sum_dyg += dyg;
            sum_dyg_n += dyg * n_row[c];
            dgamma[c] += dy_row[c] * n_row[c];
            dbeta[c] += dy_row[c];
        }
        let inv_d = 1.0 / d as f32;
        for c in 0..d {
            let dyg = dy_row[c] * gamma[c];
            dx[(r, c)] = istd * (dyg - inv_d * sum_dyg - n_row[c] * inv_d * sum_dyg_n);
        }
    }
    (dx, dgamma, dbeta)
}

/// Add an additive attention mask in place: `x[i,j] += mask[i,j]`.
///
/// Masks here use `-INF`-style large negatives (`MASK_NEG`), but literal
/// `-INF` masks are safe too: the row softmax
/// ([`softmax_rows_checked`](crate::guard::softmax_rows_checked)) maps a
/// fully-masked row to a well-defined all-zero probability row instead of
/// NaNs.
pub fn apply_additive_mask(x: &mut Matrix, mask: &Matrix) {
    assert_eq!((x.rows(), x.cols()), (mask.rows(), mask.cols()));
    for (v, &m) in x.data_mut().iter_mut().zip(mask.data()) {
        *v += m;
    }
}

/// First index of the row maximum; NaNs never win — including on an
/// all-NaN row, which has no maximum and returns 0 by convention (the
/// caller sees a poisoned distribution either way, and index 0 keeps the
/// result independent of the row length). The one prediction rule of the
/// workspace: the trainer's accuracy and the sampler's greedy pick.
#[inline]
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = row.first().copied().unwrap_or(f32::NAN);
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > best_v || (best_v.is_nan() && !v.is_nan()) {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Large negative used for masked attention logits.
pub const MASK_NEG: f32 = -1.0e9;

/// Causal (lower-triangular) additive mask of size `n × n` (GPT-2 style).
pub fn causal_mask(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| if c > r { MASK_NEG } else { 0.0 })
}

/// Out-of-place row softmax: the reference the unit tests compare
/// against.
#[cfg(test)]
pub(crate) fn softmax_rows(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    softmax_rows_inplace(&mut y);
    y
}

/// Element-wise GELU: the reference the unit tests compare against.
#[cfg(test)]
pub(crate) fn gelu_matrix(x: &Matrix) -> Matrix {
    x.map(gelu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = TensorRng::seed_from(1);
        let x = rng.normal_matrix(8, 16, 3.0);
        let y = softmax_rows(&x);
        for r in 0..y.rows() {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            assert!(y.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let shifted = x.map(|v| v + 100.0);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&shifted), 1e-5, 1e-6));
    }

    #[test]
    fn softmax_handles_large_magnitudes_without_overflow() {
        let x = Matrix::from_vec(1, 3, vec![1e30, 1e30, -1e30]);
        let y = softmax_rows(&x);
        assert!(y.all_finite());
        assert!((y[(0, 0)] - 0.5).abs() < 1e-5);
        assert!(y[(0, 2)] < 1e-6);
    }

    #[test]
    fn softmax_inf_becomes_nan_row() {
        // +INF in the attention score passes through max-subtraction as
        // INF - INF = NaN: the Table 2 transition AS:1R-∞* → AP:1R-Θ.
        let x = Matrix::from_vec(1, 4, vec![0.0, f32::INFINITY, 1.0, 2.0]);
        let y = softmax_rows(&x);
        assert!(y.row(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn softmax_near_inf_saturates_to_one_hot() {
        // near-INF stays finite, so the row saturates to a one-hot instead of
        // NaN — this is why near-INF faults in AS rarely produce
        // non-trainable states (Table 4: 0.2%–11.2%) while INF/NaN do.
        let x = Matrix::from_vec(1, 4, vec![0.0, 1e20, 1.0, 2.0]);
        let y = softmax_rows(&x);
        assert_eq!(y[(0, 1)], 1.0);
        assert_eq!(y[(0, 0)], 0.0);
        assert!(y.all_finite());
    }

    #[test]
    fn softmax_two_infs_produce_nan() {
        // INF - INF = NaN inside the max-subtraction: mixed ±INF rows go NaN,
        // the "type transition" hazard the paper's EEC-ABFT case 3 handles.
        let x = Matrix::from_vec(1, 3, vec![f32::INFINITY, f32::INFINITY, 0.0]);
        let y = softmax_rows(&x);
        assert!(y.row(0)[..2].iter().any(|v| v.is_nan()));
    }

    #[test]
    fn softmax_nan_poisons_row_only() {
        let x = Matrix::from_vec(2, 3, vec![0.0, f32::NAN, 1.0, 0.5, 0.5, 0.5]);
        let y = softmax_rows(&x);
        assert!(y.row(0).iter().all(|v| v.is_nan()));
        assert!(y.row(1).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_fully_masked_row_is_all_zero_not_nan() {
        // A fully -INF row (causal/padding mask over a padded position)
        // must not fabricate NaNs — it is a well-defined "attend to
        // nothing" row.
        let x = Matrix::from_vec(
            2,
            3,
            vec![
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                0.5,
                0.25,
                -1.0,
            ],
        );
        let y = softmax_rows(&x);
        assert!(crate::float::all_exactly_zero(y.row(0)), "{:?}", y.row(0));
        // The neighbouring genuine row is untouched.
        let s: f32 = y.row(1).iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(y.all_finite());
    }

    #[test]
    fn softmax_single_element_neg_inf_row_is_zero() {
        let x = Matrix::from_vec(1, 1, vec![f32::NEG_INFINITY]);
        let y = softmax_rows(&x);
        assert_eq!(y[(0, 0)], 0.0);
    }

    #[test]
    fn softmax_nan_still_poisons_fully_masked_row() {
        // The NaN-poisoning contract survives the masked-row fix: a NaN
        // among -INF entries keeps the row NaN (fault propagation must
        // stay observable).
        let x = Matrix::from_vec(1, 3, vec![f32::NEG_INFINITY, f32::NAN, f32::NEG_INFINITY]);
        let y = softmax_rows(&x);
        assert!(y.row(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn softmax_backward_zero_row_has_zero_gradient() {
        // A fully-masked forward row is constant in its inputs, so its
        // gradient is exactly zero — even against a NaN upstream gradient.
        let y = Matrix::from_vec(2, 3, vec![0.0, 0.0, 0.0, 0.2, 0.3, 0.5]);
        let dy = Matrix::from_vec(2, 3, vec![f32::NAN, 1.0, f32::INFINITY, 0.1, 0.2, 0.3]);
        let dx = softmax_rows_backward(&y, &dy);
        assert!(crate::float::all_exactly_zero(dx.row(0)));
        assert!(dx.row(1).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(2);
        let x = rng.normal_matrix(3, 5, 1.0);
        let dy = rng.normal_matrix(3, 5, 1.0);
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &dy);

        let eps = 1e-3;
        for r in 0..3 {
            for c in 0..5 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lp: f32 = softmax_rows(&xp)
                    .data()
                    .iter()
                    .zip(dy.data())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let lm: f32 = softmax_rows(&xm)
                    .data()
                    .iter()
                    .zip(dy.data())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 2e-2,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Asymptotics
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.2, 0.0, 0.4, 1.3, 2.8] {
            let eps = 1e-3;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!((fd - gelu_grad(x)).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn bias_and_col_sums_are_adjoint() {
        let mut rng = TensorRng::seed_from(3);
        let mut x = rng.normal_matrix(4, 6, 1.0);
        let before = x.clone();
        let bias = vec![1.0, -1.0, 0.5, 0.0, 2.0, -0.5];
        add_bias_inplace(&mut x, &bias);
        for r in 0..4 {
            for c in 0..6 {
                assert!((x[(r, c)] - before[(r, c)] - bias[c]).abs() < 1e-6);
            }
        }
        let sums = col_sums(&before);
        for c in 0..6 {
            let expect: f32 = (0..4).map(|r| before[(r, c)]).sum();
            assert!((sums[c] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut rng = TensorRng::seed_from(4);
        let x = rng.normal_matrix(5, 32, 4.0);
        let gamma = vec![1.0; 32];
        let beta = vec![0.0; 32];
        let (y, _) = layer_norm(&x, &gamma, &beta, 1e-5);
        for r in 0..5 {
            let row = y.row(r);
            let mu: f32 = row.iter().sum::<f32>() / 32.0;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / 32.0;
            assert!(mu.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layer_norm_gamma_beta_affine() {
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let (y1, _) = layer_norm(&x, &[1.0; 4], &[0.0; 4], 1e-5);
        let (y2, _) = layer_norm(&x, &[2.0; 4], &[1.0; 4], 1e-5);
        for c in 0..4 {
            assert!((y2[(0, c)] - (2.0 * y1[(0, c)] + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(5);
        let x = rng.normal_matrix(2, 8, 2.0);
        let gamma: Vec<f32> = (0..8).map(|i| 0.5 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..8).map(|i| 0.1 * i as f32).collect();
        let dy = rng.normal_matrix(2, 8, 1.0);

        let (_, cache) = layer_norm(&x, &gamma, &beta, 1e-5);
        let (dx, dgamma, dbeta) = layer_norm_backward(&dy, &cache, &gamma);

        let loss = |xx: &Matrix, gg: &[f32], bb: &[f32]| -> f32 {
            let (y, _) = layer_norm(xx, gg, bb, 1e-5);
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };

        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..8 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 3e-2,
                    "dx fd {fd} vs {} at ({r},{c})",
                    dx[(r, c)]
                );
            }
        }
        for c in 0..8 {
            let mut gp = gamma.clone();
            gp[c] += eps;
            let mut gm = gamma.clone();
            gm[c] -= eps;
            let fd = (loss(&x, &gp, &beta) - loss(&x, &gm, &beta)) / (2.0 * eps);
            assert!((fd - dgamma[c]).abs() < 3e-2, "dgamma c={c}");

            let mut bp = beta.clone();
            bp[c] += eps;
            let mut bm = beta.clone();
            bm[c] -= eps;
            let fd = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * eps);
            assert!((fd - dbeta[c]).abs() < 3e-2, "dbeta c={c}");
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(4);
        for r in 0..4 {
            for c in 0..4 {
                if c > r {
                    assert_eq!(m[(r, c)], MASK_NEG);
                } else {
                    assert_eq!(m[(r, c)], 0.0);
                }
            }
        }
    }

    #[test]
    fn argmax_picks_maximum_not_hardcoded_class() {
        assert_eq!(argmax(&[0.1, 0.9]), 1);
        assert_eq!(argmax(&[0.9, 0.1]), 0);
        assert_eq!(argmax(&[-3.0, -1.0, -2.0]), 1);
        assert_eq!(argmax(&[1.0, 2.0, 5.0, 0.0]), 2);
        // Ties keep the earliest index (the old 2-class rule's behaviour).
        assert_eq!(argmax(&[2.0, 2.0]), 0);
        // NaN never wins over a finite value.
        assert_eq!(argmax(&[f32::NAN, 1.0, 0.5]), 1);
    }

    #[test]
    fn argmax_recovers_after_leading_nans() {
        assert_eq!(argmax(&[f32::NAN, f32::NAN, 0.25, 0.5]), 3);
        assert_eq!(argmax(&[f32::NAN, -1.0, f32::NAN]), 1);
    }

    #[test]
    fn argmax_of_an_all_nan_row_is_zero() {
        assert_eq!(argmax(&[f32::NAN; 5]), 0);
        assert_eq!(argmax(&[f32::NAN]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn masked_softmax_row_still_sums_to_one() {
        let mut x = Matrix::full(1, 4, 1.0);
        let mask = Matrix::from_vec(1, 4, vec![0.0, MASK_NEG, MASK_NEG, 0.0]);
        apply_additive_mask(&mut x, &mask);
        let y = softmax_rows(&x);
        assert!((y[(0, 0)] - 0.5).abs() < 1e-5);
        assert!(y[(0, 1)] < 1e-6);
        let s: f32 = y.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }
}
