//! Position-wise feed-forward network: `Linear → GELU → Linear`, with an
//! ATTNChecker-guarded forward that protects both GEMMs end-to-end.
//!
//! The FFN is the section `S_FFN = {H·W_1, GELU(·)·W_2}` built on
//! [`GuardedSection`]: the block input is column-encoded inside the
//! expansion GEMM's packing pass and its checksums ride to a detection
//! point at the pre-GELU activation; GELU is a nonlinearity, so the
//! pipeline exits and re-encodes inside the contraction GEMM (exactly like
//! softmax in `S_CL`), which gets its own delayed detection point. There is
//! one pipeline: a skipped gate, a fault hook or [`ProtectionConfig::off`]
//! are values passed in, and an inactive section costs the same copies as
//! a hand-written plain `Linear → GELU → Linear`. GELU runs under the
//! caller's op guard (one scope per model forward), and the tape takes the
//! input and both activations by move, so serving, which drops it, copies
//! nothing for it. Corrections are refined to exact bits by replaying the
//! producing dot product, so a corrected step is bit-identical to the
//! fault-free step — rollback-free, end-to-end through training.

use crate::linear::ProtectedLinear;
use crate::param::{Grads, HasParams, Param};
use crate::tape::FfnTape;
use attn_tensor::guard::{gelu_backward_checked, gelu_matrix_checked};
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::SectionId;
use attnchecker::section::{ForwardCtx, GuardedSection};

/// Transformer FFN block (expansion factor configurable, 4× by default).
#[derive(Debug, Clone)]
pub struct FeedForward {
    /// Expansion projection (tap site [`AttnOp::Ffn1`]).
    pub lin1: ProtectedLinear,
    /// Contraction projection (tap site [`AttnOp::Ffn2`]).
    pub lin2: ProtectedLinear,
}

impl FeedForward {
    /// Build with the given inner width.
    pub fn new(name: &str, hidden: usize, inner: usize, rng: &mut TensorRng) -> Self {
        Self {
            lin1: ProtectedLinear::new(&format!("{name}.lin1"), hidden, inner, AttnOp::Ffn1, rng),
            lin2: ProtectedLinear::new(&format!("{name}.lin2"), inner, hidden, AttnOp::Ffn2, rng),
        }
    }

    /// Forward: both GEMMs run inside one `S_FFN` section under `config`,
    /// gated by `ctx.toggles.s_ffn`, with fault taps at
    /// [`AttnOp::Ffn1`]/[`AttnOp::Ffn2`] and in-place (rollback-free)
    /// correction; GELU runs under the caller's element-wise op guard `g`
    /// whether or not the section fires. Degrades to the exact unprotected
    /// computation under [`ProtectionConfig::off`]. The returned tape is
    /// built by move — the input, and the healed activations the pass
    /// computed anyway — so backward proceeds exactly as fault-free, and a
    /// caller that does not train drops it without having copied a row.
    pub fn forward(
        &self,
        x: Matrix,
        config: &ProtectionConfig,
        ctx: &mut ForwardCtx<'_, '_>,
        g: &OpGuard,
    ) -> (Matrix, FfnTape) {
        let sec = GuardedSection::begin(
            SectionId::FeedForward,
            config,
            ctx.toggles.s_ffn,
            ctx.report,
        );
        // The block input enters S_FFN inside the expansion GEMM's packing
        // pass: no standalone encode sweep over `x`, no wrap.
        let pre = self.lin1.forward(&x, &sec, ctx);
        // GELU is nonlinear: exit the checksummed region (dropping the
        // border is a truncate, not a copy); the result's re-encoding rides
        // inside the contraction GEMM's packing pass. The nonlinearity
        // itself is covered by the element-wise op guard (bounds screen +
        // exact recompute from the healed `pre`, which the tape keeps
        // anyway) whether or not the S_FFN gate fired.
        let pre = pre.into_logical();
        let act = gelu_matrix_checked(&pre, g);
        let y = self.lin2.forward(&act, &sec, ctx);
        (y.into_logical(), FfnTape { x, pre, act })
    }

    /// Backward over a tape with the GELU derivative under `g` (see
    /// [`attn_tensor::guard::verify_gelu_backward`]); returns `dx`.
    pub fn backward(&self, dy: &Matrix, tape: &FfnTape, grads: &mut Grads, g: &OpGuard) -> Matrix {
        let dact = self.lin2.inner.backward(dy, &tape.act, grads);
        let dpre = gelu_backward_checked(&tape.pre, &dact, g);
        self.lin1.inner.backward(&dpre, &tape.x, grads)
    }
}

impl HasParams for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_fault::FaultKind;
    use attnchecker::attention::{FaultSite, SectionToggles};
    use attnchecker::checked::CheckedMatrix;
    use attnchecker::report::AbftReport;

    /// Unprotected forward: `off()` config, no sections, no hook.
    fn plain(ffn: &FeedForward, x: &Matrix) -> (Matrix, FfnTape) {
        let (y, tape, _) = guarded(ffn, x, &ProtectionConfig::off(), false, None);
        (y, tape)
    }

    /// Backward over `tape` with gradients merged into the layer; returns `dx`.
    fn backprop(ffn: &mut FeedForward, tape: &FfnTape, dy: &Matrix) -> Matrix {
        let mut grads = Grads::new();
        let dx = ffn.backward(dy, tape, &mut grads, &OpGuard::off());
        grads.merge_into(ffn);
        dx
    }

    #[test]
    fn shapes() {
        let mut rng = TensorRng::seed_from(1);
        let ffn = FeedForward::new("f", 8, 32, &mut rng);
        let x = rng.normal_matrix(5, 8, 1.0);
        let (y, _) = plain(&ffn, &x);
        assert_eq!((y.rows(), y.cols()), (5, 8));
    }

    #[test]
    fn gradient_check_dx() {
        let mut rng = TensorRng::seed_from(2);
        let mut ffn = FeedForward::new("f", 4, 8, &mut rng);
        let x = rng.normal_matrix(2, 4, 1.0);
        let dy = rng.normal_matrix(2, 4, 1.0);
        let (_, tape) = plain(&ffn, &x);
        let dx = backprop(&mut ffn, &tape, &dy);

        let loss = |f: &FeedForward, xx: &Matrix| -> f32 {
            let (y, _) = plain(f, xx);
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };
        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss(&ffn, &xp) - loss(&ffn, &xm)) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 3e-2,
                    "dx ({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn gradient_check_weights() {
        let mut rng = TensorRng::seed_from(3);
        let mut ffn = FeedForward::new("f", 3, 6, &mut rng);
        let x = rng.normal_matrix(2, 3, 1.0);
        let dy = rng.normal_matrix(2, 3, 1.0);
        let (_, tape) = plain(&ffn, &x);
        let _ = backprop(&mut ffn, &tape, &dy);

        let loss = |f: &FeedForward, xx: &Matrix| -> f32 {
            let (y, _) = plain(f, xx);
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };
        let eps = 1e-2;
        for r in 0..3 {
            for c in 0..6 {
                let mut fp = ffn.clone();
                fp.lin1.inner.w.value[(r, c)] += eps;
                let mut fm = ffn.clone();
                fm.lin1.inner.w.value[(r, c)] -= eps;
                let fd = (loss(&fp, &x) - loss(&fm, &x)) / (2.0 * eps);
                assert!(
                    (fd - ffn.lin1.inner.w.grad[(r, c)]).abs() < 3e-2,
                    "dW1 ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = TensorRng::seed_from(4);
        let mut ffn = FeedForward::new("f", 4, 16, &mut rng);
        // 4×16 + 16 + 16×4 + 4 = 148
        assert_eq!(ffn.param_count(), 148);
    }

    /// Returns `(output, tape, report)`.
    fn guarded(
        ffn: &FeedForward,
        x: &Matrix,
        config: &ProtectionConfig,
        s_ffn: bool,
        hook: Option<attnchecker::attention::FaultHook<'_>>,
    ) -> (Matrix, FfnTape, AbftReport) {
        let mut report = AbftReport::default();
        let (out, tape) = {
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles {
                    s_ffn,
                    ..SectionToggles::none()
                },
                hook,
                report: &mut report,
            };
            // The op guard a model forward opens under this config.
            let g = OpGuard::new(!config.is_off(), config.abft.detect_tol);
            let out = ffn.forward(x.clone(), config, &mut ctx, &g);
            ctx.report.absorb_op_guard(g.take_stats());
            out
        };
        (out, tape, report)
    }

    #[test]
    fn guarded_fault_free_is_bit_identical_to_unprotected() {
        let mut rng = TensorRng::seed_from(5);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let (reference, _) = plain(&ffn, &x);
        for s_ffn in [false, true] {
            let (y, _, report) = guarded(&ffn, &x, &ProtectionConfig::full(), s_ffn, None);
            assert_eq!(y, reference, "s_ffn={s_ffn}");
            assert!(report.is_quiet());
            assert_eq!(report.sections_checked, usize::from(s_ffn));
        }
    }

    #[test]
    fn both_gemm_sites_are_corrected_in_place() {
        let mut rng = TensorRng::seed_from(6);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let (reference, _) = plain(&ffn, &x);
        for op in AttnOp::FFN {
            for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
                let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                    if site.op == op {
                        let (r, c) = (m.rows() / 2, m.cols() / 3);
                        let old = m.get(r, c);
                        m.set(r, c, kind.apply(old));
                    }
                };
                let (y, _, report) =
                    guarded(&ffn, &x, &ProtectionConfig::full(), true, Some(&mut hook));
                assert_eq!(y, reference, "{op:?}/{kind:?}: must restore exact bits");
                assert!(report.correction_count() > 0, "{op:?}/{kind:?}");
                assert_eq!(report.unrecovered, 0, "{op:?}/{kind:?}");
                assert!(report
                    .corrections
                    .iter()
                    .all(|c| c.section == SectionId::FeedForward));
            }
        }
    }

    #[test]
    fn cached_activations_are_healed_for_backward() {
        let mut rng = TensorRng::seed_from(7);
        let mut clean = FeedForward::new("f", 4, 16, &mut rng);
        let mut faulty = clean.clone();
        let x = rng.normal_matrix(3, 4, 1.0);
        let dy = rng.normal_matrix(3, 4, 1.0);

        let (_, tape, _) = guarded(&clean, &x, &ProtectionConfig::full(), true, None);
        let dx_clean = backprop(&mut clean, &tape, &dy);

        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            if site.op == AttnOp::Ffn1 {
                m.set(1, 5, f32::INFINITY);
            }
        };
        let (_, tape, report) = guarded(
            &faulty,
            &x,
            &ProtectionConfig::full(),
            true,
            Some(&mut hook),
        );
        assert!(report.correction_count() > 0);
        let dx_faulty = backprop(&mut faulty, &tape, &dy);
        assert_eq!(dx_clean, dx_faulty, "backward must see healed activations");
        assert_eq!(clean.lin1.inner.w.grad, faulty.lin1.inner.w.grad);
    }

    #[test]
    fn unprotected_run_with_and_without_hook_share_one_pipeline() {
        // There is no hook-free shortcut any more: `off()` with a hook that
        // injects nothing and `off()` with no hook run the same pipeline,
        // so output and tape agree bit for bit.
        let mut rng = TensorRng::seed_from(9);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let mut taps = 0usize;
        let mut hook = |_: FaultSite, _: &mut CheckedMatrix| taps += 1;
        let off = ProtectionConfig::off();
        let (y_hook, t_hook, r_hook) = guarded(&ffn, &x, &off, false, Some(&mut hook));
        let (y_none, t_none, r_none) = guarded(&ffn, &x, &off, false, None);
        assert_eq!(taps, 2, "both FFN sites must be exposed to the hook");
        assert_eq!(y_hook, y_none);
        assert_eq!(t_hook.x, t_none.x);
        assert_eq!(t_hook.pre, t_none.pre);
        assert_eq!(t_hook.act, t_none.act);
        assert!(r_hook.is_quiet() && r_none.is_quiet());
        assert_eq!((r_hook.op_checks, r_none.op_checks), (0, 0));
    }

    #[test]
    fn gelu_guard_runs_whenever_protection_is_not_off() {
        // The S_FFN gate (or an attention-only policy) skips the GEMM
        // checksums, never the element-wise GELU screen.
        let mut rng = TensorRng::seed_from(8);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let (y_off, _, r_off) = guarded(&ffn, &x, &ProtectionConfig::off(), false, None);
        assert_eq!(r_off.op_checks, 0);
        for (config, s_ffn) in [
            (ProtectionConfig::attention_only(), false),
            (ProtectionConfig::full(), false),
            (ProtectionConfig::full(), true),
        ] {
            let (y, _, report) = guarded(&ffn, &x, &config, s_ffn, None);
            assert!(report.op_checks > 0, "s_ffn={s_ffn}: GELU screen skipped");
            assert!(report.is_quiet());
            assert_eq!(y, y_off, "s_ffn={s_ffn}: guard must be transparent");
        }
    }
}
