//! Transformer block: attention + FFN with residuals, in post-LN
//! (BERT/RoBERTa) or pre-LN (GPT-2/GPT-Neo) arrangement.
//!
//! [`TransformerBlock::forward`] is the one block pipeline, for both
//! arrangements and for training and serving alike: the attention reads and
//! grows the KV cache it is handed (a fresh one per training sequence, the
//! session's when serving), and the tape is recorded only when asked for.
//! One [`Ctx`] flows through the whole block: the attention
//! ([`decode::extend`]) opens its three sections off its policy, toggles,
//! mask and hook, the FFN sub-layer its own `S_FFN` section off the same
//! context, and the non-GEMM ops run under its op guard, so a model
//! forward has one guard scope.

use crate::attn_layer::AttentionLayer;
use crate::ffn::FeedForward;
use crate::layernorm::LayerNorm;
use crate::param::{Grads, HasParams, Param};
use crate::tape::BlockTape;
use attn_tensor::guard::residual_add_checked;
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::decode::{self, AttnKvCache};
use attnchecker::section::Ctx;
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

    /// Forward pass attending over `cache` (a fresh one for a training
    /// sequence, a session's for serving): returns the output and, when
    /// `ctx.taped`, the block's activation tape (sub-layer wall times
    /// included). Both arrangements run this one body: pre-LN normalises
    /// each sub-layer's input, post-LN its residual sum. `ctx` flows
    /// through both protected sub-layers; the LayerNorms, residual adds,
    /// softmax and GELU run under `ctx.guard()`.
    pub fn forward(
        &self,
        x: &Matrix,
        cache: &mut AttnKvCache,
        ctx: &mut Ctx<'_, '_>,
    ) -> (Matrix, Option<BlockTape>) {
        let pre = self.arch == BlockArch::PreLn;
        let n1 = pre.then(|| self.ln1.forward(x, ctx.guard()));
        let t0 = Instant::now();
        let attn_in = n1.as_ref().map_or(x, |(n, _)| n);
        let (a, attn) = decode::extend(&self.attn.weights(), attn_in, cache, ctx);
        let attn_time = t0.elapsed();
        let sum1 = residual_add_checked(x, &a, ctx.guard());
        let (h, ln1) = match n1 {
            Some((_, stats)) => (sum1, stats),
            None => self.ln1.forward(&sum1, ctx.guard()),
        };

        // Pre-LN: the FFN reads LN2(h) and `h` stays the residual base;
        // post-LN: the FFN reads `h` itself, and its tape hands it back.
        let (ffn_in, ln2_stats, base) = if pre {
            let (n2, stats) = self.ln2.forward(&h, ctx.guard());
            (n2, Some(stats), Some(h))
        } else {
            (h, None, None)
        };
        let t1 = Instant::now();
        let (f, ffn) = self.ffn.forward(ffn_in, ctx);
        let ffn_time = t1.elapsed();
        let sum2 = residual_add_checked(base.as_ref().unwrap_or(&ffn.x), &f, ctx.guard());
        let (y, ln2) = match ln2_stats {
            Some(stats) => (sum2, stats),
            None => self.ln2.forward(&sum2, ctx.guard()),
        };
        let tape = attn.map(|attn| BlockTape {
            attn,
            ffn,
            ln1,
            ln2,
            attn_time,
            ffn_time,
        });
        (y, tape)
    }

    /// Backward over a tape; returns `dx`. The non-GEMM ops run under `g`:
    /// LayerNorm, GELU and softmax backward screens, healing by exact
    /// recompute on violation, and residual gradient adds checked by
    /// adding them again.
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
    use attnchecker::config::ProtectionConfig;
    use attnchecker::report::AbftReport;

    fn block(arch: BlockArch, rng: &mut TensorRng) -> TransformerBlock {
        TransformerBlock::new("b", 8, 2, 16, arch, rng)
    }

    /// Taped forward over a fresh cache, the op guard folded into `report`.
    fn run(
        b: &TransformerBlock,
        x: &Matrix,
        protection: &ProtectionConfig,
        toggles: SectionToggles,
        report: &mut AbftReport,
    ) -> (Matrix, BlockTape) {
        let mut ctx = Ctx::new(protection, toggles, report);
        ctx.taped = true;
        let mut kv = AttnKvCache::new(x.cols(), b.attn.heads, !protection.is_off());
        let (y, tape) = b.forward(x, &mut kv, &mut ctx);
        (y, tape.expect("a taped forward returns its tape"))
    }

    fn forward_unprotected(
        b: &TransformerBlock,
        x: &Matrix,
        report: &mut AbftReport,
    ) -> (Matrix, BlockTape) {
        run(
            b,
            x,
            &ProtectionConfig::off(),
            SectionToggles::none(),
            report,
        )
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
            let full = ProtectionConfig::full();
            let (y_on, _) = run(&b, &x, &full, SectionToggles::all(), &mut r_on);
            assert_eq!(y_on, y_off, "{arch:?}: protection must be transparent");
            assert!(r_on.is_quiet());
            // 3 attention sections + 1 FFN section ran.
            assert_eq!(r_on.sections_checked, 4);
        }
    }
}
