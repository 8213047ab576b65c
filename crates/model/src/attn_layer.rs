//! Multi-head attention layer: ATTNChecker-protected forward (the one
//! attention of the `attnchecker` crate, over a KV cache) plus a
//! hand-written backward pass.
//!
//! The paper integrates ATTNChecker into the *forward* attention GEMMs; the
//! backward pass consumes the cached `Q`/`K`/`V`/`AP`/`CL` activations —
//! which the protected forward has already healed — so corrected training
//! proceeds exactly as a fault-free run (the Fig 6 property).

use crate::param::{Grads, HasParams, Param};
use attn_tensor::gemm::{matmul, matmul_nt, matmul_tn};
use attn_tensor::guard::softmax_rows_backward_checked;
use attn_tensor::ops::col_sums;
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::attention::{AttentionWeightsRef, AttnCache};
use attnchecker::config::ProtectionConfig;
use attnchecker::decode::{self, AttnKvCache};
use attnchecker::section::ForwardCtx;

/// Attention layer owning its parameters; the protection policy is the
/// model's, passed into [`Self::forward`].
#[derive(Debug, Clone)]
pub struct AttentionLayer {
    /// Query projection parameter (`hidden × hidden`).
    pub wq: Param,
    /// Key projection parameter.
    pub wk: Param,
    /// Value projection parameter.
    pub wv: Param,
    /// Output projection parameter.
    pub wo: Param,
    /// Query bias (`1 × hidden`).
    pub bq: Param,
    /// Key bias.
    pub bk: Param,
    /// Value bias.
    pub bv: Param,
    /// Output bias.
    pub bo: Param,
    /// Head count.
    pub heads: usize,
}

impl AttentionLayer {
    /// Xavier-initialised attention layer.
    pub fn new(name: &str, hidden: usize, heads: usize, rng: &mut TensorRng) -> Self {
        assert!(heads > 0 && hidden.is_multiple_of(heads));
        Self {
            wq: Param::new(format!("{name}.wq"), rng.xavier_matrix(hidden, hidden)),
            wk: Param::new(format!("{name}.wk"), rng.xavier_matrix(hidden, hidden)),
            wv: Param::new(format!("{name}.wv"), rng.xavier_matrix(hidden, hidden)),
            wo: Param::new(format!("{name}.wo"), rng.xavier_matrix(hidden, hidden)),
            bq: Param::zeros(format!("{name}.bq"), 1, hidden),
            bk: Param::zeros(format!("{name}.bk"), 1, hidden),
            bv: Param::zeros(format!("{name}.bv"), 1, hidden),
            bo: Param::zeros(format!("{name}.bo"), 1, hidden),
            heads,
        }
    }

    /// Model width.
    pub fn hidden(&self) -> usize {
        self.wq.value.rows()
    }

    /// Borrowed view of the parameters for the `attnchecker` forward and
    /// decode kernels — no `hidden × hidden` clone per call.
    pub fn weights(&self) -> AttentionWeightsRef<'_> {
        AttentionWeightsRef {
            hidden: self.hidden(),
            heads: self.heads,
            wq: &self.wq.value,
            wk: &self.wk.value,
            wv: &self.wv.value,
            wo: &self.wo.value,
            bq: self.bq.bias(),
            bk: self.bk.bias(),
            bv: self.bv.bias(),
            bo: self.bo.bias(),
        }
    }

    /// Protected forward under `config`: the one attention
    /// ([`decode::extend`]) over `cache`, returning the output and, when
    /// `taped`, the activation tape (post-correction when protection ran).
    pub fn forward(
        &self,
        x: &Matrix,
        config: &ProtectionConfig,
        cache: &mut AttnKvCache,
        ctx: &mut ForwardCtx<'_, '_>,
        g: &OpGuard,
        taped: bool,
    ) -> (Matrix, Option<AttnCache>) {
        decode::extend(&self.weights(), config, x, cache, ctx, g, taped)
    }

    /// Backward over a tape; returns `dx` and writes all eight parameter
    /// gradients into `grads`. Each per-head softmax Jacobian product is
    /// screened under `g` (its rows sum to ~0) and healed by exact
    /// recompute on violation.
    #[allow(
        clippy::disallowed_methods,
        reason = "unguarded by design: the backward GEMMs consume a healed tape (ROADMAP item 6b)"
    )]
    pub fn backward(
        &self,
        dy: &Matrix,
        cache: &AttnCache,
        grads: &mut Grads,
        g: &OpGuard,
    ) -> Matrix {
        let hidden = self.hidden();
        let heads = self.heads;
        let d = hidden / heads;
        let seq = cache.x.rows();
        let scale = 1.0 / (d as f32).sqrt();

        // ---- output projection: O = CL·W_O + b_O
        grads.accumulate(&self.wo.name, &matmul_tn(&cache.cl, dy));
        grads.accumulate(&self.bo.name, &Matrix::from_vec(1, hidden, col_sums(dy)));
        let dcl = matmul_nt(dy, &self.wo.value);

        // ---- per-head attention core
        let mut dq = Matrix::zeros(seq, hidden);
        let mut dk = Matrix::zeros(seq, hidden);
        let mut dv = Matrix::zeros(seq, hidden);
        for h in 0..heads {
            let cols = h * d..(h + 1) * d;
            let dcl_h = dcl.submatrix(0, seq, cols.start, cols.end);
            let v_h = cache.v.submatrix(0, seq, cols.start, cols.end);
            let q_h = cache.q.submatrix(0, seq, cols.start, cols.end);
            let k_h = cache.k.submatrix(0, seq, cols.start, cols.end);
            let ap_h = &cache.ap[h];

            // CL_h = AP_h · V_h
            let dap = matmul_nt(&dcl_h, &v_h);
            let dv_h = matmul_tn(ap_h, &dcl_h);

            // AP = softmax(scores); scores = (Q·Kᵀ)·scale + mask
            let dscores = softmax_rows_backward_checked(ap_h, &dap, g);
            let dqk = dscores.scaled(scale);

            // QKᵀ term
            let dq_h = matmul(&dqk, &k_h);
            let dk_h = matmul_tn(&dqk, &q_h);

            for r in 0..seq {
                dq.row_mut(r)[cols.clone()].copy_from_slice(dq_h.row(r));
                dk.row_mut(r)[cols.clone()].copy_from_slice(dk_h.row(r));
                dv.row_mut(r)[cols.clone()].copy_from_slice(dv_h.row(r));
            }
        }

        // ---- input projections: Q = X·W_Q + b_Q etc.
        grads.accumulate(&self.wq.name, &matmul_tn(&cache.x, &dq));
        grads.accumulate(&self.wk.name, &matmul_tn(&cache.x, &dk));
        grads.accumulate(&self.wv.name, &matmul_tn(&cache.x, &dv));
        grads.accumulate(&self.bq.name, &Matrix::from_vec(1, hidden, col_sums(&dq)));
        grads.accumulate(&self.bk.name, &Matrix::from_vec(1, hidden, col_sums(&dk)));
        grads.accumulate(&self.bv.name, &Matrix::from_vec(1, hidden, col_sums(&dv)));

        let mut dx = matmul_nt(&dq, &self.wq.value);
        dx.axpy(1.0, &matmul_nt(&dk, &self.wk.value));
        dx.axpy(1.0, &matmul_nt(&dv, &self.wv.value));
        dx
    }
}

impl HasParams for AttentionLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
        f(&mut self.bq);
        f(&mut self.bk);
        f(&mut self.bv);
        f(&mut self.bo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_tensor::ops::causal_mask;
    use attnchecker::attention::SectionToggles;
    use attnchecker::report::AbftReport;
    use attnchecker::section::GuardedSection;

    fn fwd(
        layer: &AttentionLayer,
        x: &Matrix,
        config: &ProtectionConfig,
        toggles: SectionToggles,
        mask: Option<&Matrix>,
        report: &mut AbftReport,
    ) -> (Matrix, AttnCache) {
        let mut ctx = ForwardCtx {
            mask,
            toggles,
            hook: None,
            report,
        };
        let mut kv = AttnKvCache::new(layer.hidden(), layer.heads, !config.is_off());
        let g = GuardedSection::guard_step(config);
        let (y, tape) = layer.forward(x, config, &mut kv, &mut ctx, &g, true);
        (y, tape.expect("a taped forward returns its tape"))
    }

    /// Backward over `cache` with gradients merged into the layer; returns `dx`.
    fn backprop(layer: &mut AttentionLayer, cache: &AttnCache, dy: &Matrix) -> Matrix {
        let mut grads = Grads::new();
        let dx = layer.backward(dy, cache, &mut grads, &OpGuard::off());
        grads.merge_into(layer);
        dx
    }

    fn loss_of(layer: &AttentionLayer, x: &Matrix, dy: &Matrix, mask: Option<&Matrix>) -> f32 {
        let off = ProtectionConfig::off();
        let mut report = AbftReport::default();
        let (y, _) = fwd(layer, x, &off, SectionToggles::none(), mask, &mut report);
        y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = TensorRng::seed_from(1);
        let layer = AttentionLayer::new("a", 16, 4, &mut rng);
        let x = rng.normal_matrix(6, 16, 0.5);
        let mut report = AbftReport::default();
        let full = ProtectionConfig::full();
        let (y, _) = fwd(&layer, &x, &full, SectionToggles::all(), None, &mut report);
        assert_eq!((y.rows(), y.cols()), (6, 16));
        assert!(report.is_quiet());
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = TensorRng::seed_from(2);
        let mut layer = AttentionLayer::new("a", 8, 2, &mut rng);
        let x = rng.normal_matrix(4, 8, 0.7);
        let dy = rng.normal_matrix(4, 8, 1.0);
        let mut report = AbftReport::default();
        let off = ProtectionConfig::off();
        let (_, cache) = fwd(&layer, &x, &off, SectionToggles::all(), None, &mut report);
        let dx = backprop(&mut layer, &cache, &dy);

        let eps = 1e-2;
        for r in 0..4 {
            for c in 0..8 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss_of(&layer, &xp, &dy, None) - loss_of(&layer, &xm, &dy, None))
                    / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 5e-2,
                    "dx ({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn gradient_check_wq_and_wo() {
        let mut rng = TensorRng::seed_from(3);
        let mut layer = AttentionLayer::new("a", 6, 2, &mut rng);
        let x = rng.normal_matrix(3, 6, 0.7);
        let dy = rng.normal_matrix(3, 6, 1.0);
        let mut report = AbftReport::default();
        let off = ProtectionConfig::off();
        let (_, cache) = fwd(&layer, &x, &off, SectionToggles::all(), None, &mut report);
        let _ = backprop(&mut layer, &cache, &dy);

        let eps = 1e-2;
        for r in 0..6 {
            for c in 0..6 {
                for (pick, grad) in [(0usize, &layer.wq.grad), (1, &layer.wo.grad)] {
                    let mut lp = layer.clone();
                    let mut lm = layer.clone();
                    match pick {
                        0 => {
                            lp.wq.value[(r, c)] += eps;
                            lm.wq.value[(r, c)] -= eps;
                        }
                        _ => {
                            lp.wo.value[(r, c)] += eps;
                            lm.wo.value[(r, c)] -= eps;
                        }
                    }
                    let fd =
                        (loss_of(&lp, &x, &dy, None) - loss_of(&lm, &x, &dy, None)) / (2.0 * eps);
                    assert!(
                        (fd - grad[(r, c)]).abs() < 6e-2,
                        "param {pick} ({r},{c}): fd {fd} vs {}",
                        grad[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_check_with_causal_mask() {
        let mut rng = TensorRng::seed_from(4);
        let mut layer = AttentionLayer::new("a", 8, 2, &mut rng);
        let x = rng.normal_matrix(4, 8, 0.7);
        let dy = rng.normal_matrix(4, 8, 1.0);
        let mask = causal_mask(4);
        let mut report = AbftReport::default();
        let (_, cache) = fwd(
            &layer,
            &x,
            &ProtectionConfig::off(),
            SectionToggles::none(),
            Some(&mask),
            &mut report,
        );
        let dx = backprop(&mut layer, &cache, &dy);

        let eps = 1e-2;
        for r in 0..4 {
            for c in 0..8 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss_of(&layer, &xp, &dy, Some(&mask))
                    - loss_of(&layer, &xm, &dy, Some(&mask)))
                    / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 5e-2,
                    "masked dx ({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn protected_and_unprotected_backward_agree_when_fault_free() {
        let mut rng = TensorRng::seed_from(5);
        let mut a = AttentionLayer::new("a", 8, 2, &mut rng);
        let mut b = a.clone();
        let (full, off) = (ProtectionConfig::full(), ProtectionConfig::off());
        let x = rng.normal_matrix(4, 8, 0.7);
        let dy = rng.normal_matrix(4, 8, 1.0);
        let mut r1 = AbftReport::default();
        let mut r2 = AbftReport::default();
        let (_, ca) = fwd(&a, &x, &full, SectionToggles::all(), None, &mut r1);
        let (_, cb) = fwd(&b, &x, &off, SectionToggles::none(), None, &mut r2);
        let dxa = backprop(&mut a, &ca, &dy);
        let dxb = backprop(&mut b, &cb, &dy);
        assert!(dxa.approx_eq(&dxb, 1e-3, 1e-3));
        assert!(a.wq.grad.approx_eq(&b.wq.grad, 1e-3, 1e-3));
    }

    #[test]
    fn param_count_is_4h2_plus_4h() {
        let mut rng = TensorRng::seed_from(6);
        let mut layer = AttentionLayer::new("a", 8, 2, &mut rng);
        assert_eq!(layer.param_count(), 4 * 64 + 4 * 8);
    }
}
