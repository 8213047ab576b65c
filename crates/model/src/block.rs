//! Transformer block: attention + FFN with residuals, in post-LN
//! (BERT/RoBERTa) or pre-LN (GPT-2/GPT-Neo) arrangement.
//!
//! One [`ForwardCtx`] flows through the whole block: the attention
//! sub-layer consumes the mask/toggles/hook for its three sections, and the
//! FFN sub-layer runs its own `S_FFN` guarded section off the same context,
//! so the entire block is protected end-to-end with a single threaded
//! state.

use crate::attn_layer::AttentionLayer;
use crate::ffn::FeedForward;
use crate::layernorm::LayerNorm;
use crate::param::{Grads, HasParams, Param};
use crate::tape::BlockTape;
use attn_tensor::guard::residual_add_checked;
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::config::ProtectionConfig;
use attnchecker::section::{ForwardCtx, GuardedSection};
use std::time::Instant;

/// Residual/normalisation arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockArch {
    /// `LN(x + Attn(x))` then `LN(h + FFN(h))` — original transformer,
    /// used by BERT and RoBERTa.
    PostLn,
    /// `x + Attn(LN(x))` then `h + FFN(LN(h))` — GPT-2 family.
    PreLn,
}

/// One transformer block.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    /// Self-attention sub-layer.
    pub attn: AttentionLayer,
    /// Feed-forward sub-layer.
    pub ffn: FeedForward,
    /// Norm attached to the attention sub-layer.
    pub ln1: LayerNorm,
    /// Norm attached to the FFN sub-layer.
    pub ln2: LayerNorm,
    /// Residual arrangement.
    pub arch: BlockArch,
}

impl TransformerBlock {
    /// Build a block.
    pub fn new(
        name: &str,
        hidden: usize,
        heads: usize,
        ffn_inner: usize,
        arch: BlockArch,
        rng: &mut TensorRng,
    ) -> Self {
        Self {
            attn: AttentionLayer::new(&format!("{name}.attn"), hidden, heads, rng),
            ffn: FeedForward::new(&format!("{name}.ffn"), hidden, ffn_inner, rng),
            ln1: LayerNorm::new(&format!("{name}.ln1"), hidden, 1e-5),
            ln2: LayerNorm::new(&format!("{name}.ln2"), hidden, 1e-5),
            arch,
        }
    }

    /// Forward pass under the model's `protection`: returns the output and
    /// the block's activation tape (sub-layer wall times included). `ctx`
    /// flows through both protected sub-layers; the LayerNorms and residual
    /// adds run under one op guard scoped to the block.
    pub fn forward(
        &self,
        x: &Matrix,
        protection: &ProtectionConfig,
        ctx: &mut ForwardCtx<'_, '_>,
    ) -> (Matrix, BlockTape) {
        let op_guard = GuardedSection::guard_step(protection);
        let out = match self.arch {
            BlockArch::PostLn => {
                let t0 = Instant::now();
                let (a, attn) = self.attn.forward(x, protection, ctx);
                let attn_time = t0.elapsed();
                let sum1 = residual_add_checked(x, &a, &op_guard);
                let (h, ln1) = self.ln1.forward(&sum1, &op_guard);
                let t1 = Instant::now();
                let (f, ffn) = self.ffn.forward(&h, protection, ctx);
                let ffn_time = t1.elapsed();
                let sum2 = residual_add_checked(&h, &f, &op_guard);
                let (y, ln2) = self.ln2.forward(&sum2, &op_guard);
                (
                    y,
                    BlockTape {
                        attn,
                        ffn,
                        ln1,
                        ln2,
                        attn_time,
                        ffn_time,
                    },
                )
            }
            BlockArch::PreLn => {
                let (n1, ln1) = self.ln1.forward(x, &op_guard);
                let t0 = Instant::now();
                let (a, attn) = self.attn.forward(&n1, protection, ctx);
                let attn_time = t0.elapsed();
                let h = residual_add_checked(x, &a, &op_guard);
                let (n2, ln2) = self.ln2.forward(&h, &op_guard);
                let t1 = Instant::now();
                let (f, ffn) = self.ffn.forward(&n2, protection, ctx);
                let ffn_time = t1.elapsed();
                (
                    residual_add_checked(&h, &f, &op_guard),
                    BlockTape {
                        attn,
                        ffn,
                        ln1,
                        ln2,
                        attn_time,
                        ffn_time,
                    },
                )
            }
        };
        ctx.report.absorb_op_guard(op_guard.take_stats());
        out
    }

    /// Backward over a tape; returns `dx`. The non-GEMM ops run under `g`:
    /// LayerNorm, GELU and softmax backward screens plus residual
    /// gradient-sum transport, all healing by exact recompute on violation.
    pub fn backward(
        &self,
        dy: &Matrix,
        tape: &BlockTape,
        grads: &mut Grads,
        g: &OpGuard,
    ) -> Matrix {
        match self.arch {
            BlockArch::PostLn => {
                // y = LN2(h + FFN(h)), h = LN1(x + Attn(x))
                let dsum2 = self.ln2.backward(dy, &tape.ln2, grads, g);
                let dh_f = self.ffn.backward(&dsum2, &tape.ffn, grads, g);
                let dh = residual_add_checked(&dsum2, &dh_f, g);
                let dsum1 = self.ln1.backward(&dh, &tape.ln1, grads, g);
                let dx_a = self.attn.backward(&dsum1, &tape.attn, grads, g);
                residual_add_checked(&dsum1, &dx_a, g)
            }
            BlockArch::PreLn => {
                // y = h + FFN(LN2(h)), h = x + Attn(LN1(x))
                let dn2 = self.ffn.backward(dy, &tape.ffn, grads, g);
                let dh_ln = self.ln2.backward(&dn2, &tape.ln2, grads, g);
                let dh = residual_add_checked(dy, &dh_ln, g);
                let dn1 = self.attn.backward(&dh, &tape.attn, grads, g);
                let dx_ln = self.ln1.backward(&dn1, &tape.ln1, grads, g);
                residual_add_checked(&dh, &dx_ln, g)
            }
        }
    }
}

impl HasParams for TransformerBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit_params(f);
        self.ffn.visit_params(f);
        self.ln1.visit_params(f);
        self.ln2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attnchecker::attention::SectionToggles;
    use attnchecker::report::AbftReport;

    fn block(arch: BlockArch, rng: &mut TensorRng) -> TransformerBlock {
        TransformerBlock::new("b", 8, 2, 16, arch, rng)
    }

    fn forward_unprotected(
        b: &TransformerBlock,
        x: &Matrix,
        report: &mut AbftReport,
    ) -> (Matrix, BlockTape) {
        let mut ctx = ForwardCtx {
            mask: None,
            toggles: SectionToggles::none(),
            hook: None,
            report,
        };
        b.forward(x, &ProtectionConfig::off(), &mut ctx)
    }

    fn run_loss(b: &TransformerBlock, x: &Matrix, dy: &Matrix) -> f32 {
        let mut report = AbftReport::default();
        let (y, _) = forward_unprotected(b, x, &mut report);
        y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
    }

    fn grad_check(arch: BlockArch) {
        let mut rng = TensorRng::seed_from(7);
        let b = block(arch, &mut rng);
        let x = rng.normal_matrix(4, 8, 0.6);
        let dy = rng.normal_matrix(4, 8, 1.0);
        let mut report = AbftReport::default();
        let (_, tape) = forward_unprotected(&b, &x, &mut report);
        let dx = b.backward(&dy, &tape, &mut Grads::new(), &OpGuard::off());

        let eps = 1e-2;
        for r in 0..4 {
            for c in 0..8 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (run_loss(&b, &xp, &dy) - run_loss(&b, &xm, &dy)) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 8e-2,
                    "{arch:?} dx ({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn post_ln_gradient_check() {
        grad_check(BlockArch::PostLn);
    }

    #[test]
    fn pre_ln_gradient_check() {
        grad_check(BlockArch::PreLn);
    }

    #[test]
    fn shapes_preserved() {
        let mut rng = TensorRng::seed_from(8);
        for arch in [BlockArch::PostLn, BlockArch::PreLn] {
            let b = block(arch, &mut rng);
            let x = rng.normal_matrix(5, 8, 1.0);
            let mut report = AbftReport::default();
            let (y, _) = forward_unprotected(&b, &x, &mut report);
            assert_eq!((y.rows(), y.cols()), (5, 8));
        }
    }

    #[test]
    fn pre_ln_residual_passes_identity_at_zero_weights() {
        // With all weights zeroed the block must reduce to the identity:
        // attention and FFN contribute 0, residuals pass x through.
        let mut rng = TensorRng::seed_from(9);
        let mut b = block(BlockArch::PreLn, &mut rng);
        b.visit_params(&mut |p| {
            if !p.name.contains("gamma") {
                p.value.data_mut().fill(0.0);
            }
        });
        let x = rng.normal_matrix(3, 8, 1.0);
        let mut report = AbftReport::default();
        let (y, _) = forward_unprotected(&b, &x, &mut report);
        assert!(y.approx_eq(&x, 1e-5, 1e-5));
    }

    #[test]
    fn protected_block_matches_unprotected_when_fault_free() {
        let mut rng = TensorRng::seed_from(10);
        for arch in [BlockArch::PostLn, BlockArch::PreLn] {
            let b = block(arch, &mut rng);
            let x = rng.normal_matrix(5, 8, 0.7);
            let mut r_off = AbftReport::default();
            let (y_off, _) = forward_unprotected(&b, &x, &mut r_off);
            let mut r_on = AbftReport::default();
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles::all(),
                hook: None,
                report: &mut r_on,
            };
            let (y_on, _) = b.forward(&x, &ProtectionConfig::full(), &mut ctx);
            assert_eq!(y_on, y_off, "{arch:?}: protection must be transparent");
            assert!(r_on.is_quiet());
            // 3 attention sections + 1 FFN section ran.
            assert_eq!(r_on.sections_checked, 4);
        }
    }
}
