//! Affine layer `y = x·W + b` with manual backprop, plus its
//! ATTNChecker-guarded counterpart [`ProtectedLinear`].

use crate::param::{Grads, HasParams, Param};
use attn_tensor::gemm::{matmul, matmul_nt, matmul_tn};
use attn_tensor::ops::{add_bias_inplace, col_sums};
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::attention::{AttnOp, FaultSite};
use attnchecker::checked::{CheckedMatrix, Operand};
use attnchecker::section::{replay_nn, ForwardCtx, GuardedSection};

/// Dense affine layer.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight, `in_dim × out_dim`.
    pub w: Param,
    /// Bias, `1 × out_dim`.
    pub b: Param,
}

impl Linear {
    /// Xavier-initialised layer.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Self {
            w: Param::new(format!("{name}.w"), rng.xavier_matrix(in_dim, out_dim)),
            b: Param::zeros(format!("{name}.b"), 1, out_dim),
        }
    }

    /// Forward: returns the output and the input tape (the activation
    /// backward needs).
    pub fn forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut y = matmul(x, &self.w.value);
        add_bias_inplace(&mut y, self.b.bias());
        (y, x.clone())
    }

    /// Backward over the input tape: writes `dW = xᵀ·dy`, `db = Σrows(dy)`
    /// into `grads`, returns `dx = dy·Wᵀ`.
    pub fn backward(&self, dy: &Matrix, x: &Matrix, grads: &mut Grads) -> Matrix {
        grads.accumulate(&self.w.name, &matmul_tn(x, dy));
        grads.accumulate(&self.b.name, &Matrix::from_vec(1, dy.cols(), col_sums(dy)));
        matmul_nt(dy, &self.w.value)
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

/// A [`Linear`] layer whose forward runs as one guarded GEMM step inside a
/// [`GuardedSection`] chain: the input's checksums ride through `x·W`
/// (entering inside the GEMM when `x` arrives plain), the output is exposed
/// to fault hooks at `site`, and the section's detection point corrects any
/// extreme value in place — refined to exact bits by replaying the producing
/// dot product — before the activation is taped for backward. Backward is
/// untouched: by the time gradients flow, the taped activations are already
/// healed.
#[derive(Debug, Clone)]
pub struct ProtectedLinear {
    /// The wrapped affine layer (parameters, gradients, backward).
    pub inner: Linear,
    /// Tap site this GEMM output exposes to fault hooks.
    pub site: AttnOp,
}

impl ProtectedLinear {
    /// Xavier-initialised guarded layer tapping `site`.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        site: AttnOp,
        rng: &mut TensorRng,
    ) -> Self {
        Self {
            inner: Linear::new(name, in_dim, out_dim, rng),
            site,
        }
    }

    /// Guarded forward over `x` — a plain matrix or an upstream checked
    /// product, borrowed either way. One [`GuardedSection::gemm`] step:
    /// checksums `x` already carries ride through, a plain `x` *enters* an
    /// active section inside the GEMM's packing pass, and an inactive `sec`
    /// computes the identical bits without detection. Returns the checked
    /// output — post-detection, post-correction — for the next chain step,
    /// plus the logical input tape for backward.
    pub fn forward<'a>(
        &self,
        x: impl Into<Operand<'a>>,
        sec: &GuardedSection,
        ctx: &mut ForwardCtx<'_, '_>,
    ) -> (CheckedMatrix, Matrix) {
        let x = x.into();
        let w = &self.inner.w.value;
        let bias = self.inner.b.bias();
        let mut y = sec.gemm(x, w);
        y.add_bias(bias);
        ctx.fire(
            FaultSite {
                op: self.site,
                head: None,
            },
            &mut y,
        );
        let tape = x.logical();
        let mut det = sec.detect(&mut y, usize::MAX);
        if det.detections() > 0 {
            det.refine(&mut y, |r, c| {
                replay_nn(tape.row(r), |kk| w[(kk, c)]) + bias[c]
            });
        }
        det.absorb(ctx.report);
        (y, tape)
    }

    /// Backward over the input tape (delegates to the inner layer).
    pub fn backward(&self, dy: &Matrix, x: &Matrix, grads: &mut Grads) -> Matrix {
        self.inner.backward(dy, x, grads)
    }
}

impl HasParams for ProtectedLinear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check against a scalar loss `Σ(y ⊙ dy)`.
    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = TensorRng::seed_from(1);
        let mut lin = Linear::new("t", 5, 4, &mut rng);
        let x = rng.normal_matrix(3, 5, 1.0);
        let dy = rng.normal_matrix(3, 4, 1.0);

        let (_y, tape) = lin.forward(&x);
        let mut grads = Grads::new();
        let dx = lin.backward(&dy, &tape, &mut grads);
        grads.merge_into(&mut lin);

        let loss = |l: &Linear, xx: &Matrix| -> f32 {
            let (y, _) = l.forward(xx);
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };

        let eps = 1e-3;
        // dX
        for r in 0..3 {
            for c in 0..5 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss(&lin, &xp) - loss(&lin, &xm)) / (2.0 * eps);
                assert!((fd - dx[(r, c)]).abs() < 2e-2, "dx ({r},{c})");
            }
        }
        // dW
        for r in 0..5 {
            for c in 0..4 {
                let mut lp = lin.clone();
                lp.w.value[(r, c)] += eps;
                let mut lm = lin.clone();
                lm.w.value[(r, c)] -= eps;
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
                assert!(
                    (fd - lin.w.grad[(r, c)]).abs() < 2e-2,
                    "dW ({r},{c}): fd {fd} vs {}",
                    lin.w.grad[(r, c)]
                );
            }
        }
        // db
        for c in 0..4 {
            let mut lp = lin.clone();
            lp.b.value[(0, c)] += eps;
            let mut lm = lin.clone();
            lm.b.value[(0, c)] -= eps;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((fd - lin.b.grad[(0, c)]).abs() < 2e-2, "db {c}");
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = TensorRng::seed_from(2);
        let mut lin = Linear::new("t", 3, 2, &mut rng);
        lin.b.value[(0, 0)] = 10.0;
        let x = Matrix::zeros(4, 3);
        let (y, _) = lin.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert!((y[(0, 0)] - 10.0).abs() < 1e-6);
        assert!((y[(0, 1)]).abs() < 1e-6);
    }

    #[test]
    fn gradient_accumulates_across_calls() {
        let mut rng = TensorRng::seed_from(3);
        let mut lin = Linear::new("t", 3, 3, &mut rng);
        let x = rng.normal_matrix(2, 3, 1.0);
        let dy = rng.normal_matrix(2, 3, 1.0);
        let step = |lin: &mut Linear| {
            let (_, tape) = lin.forward(&x);
            let mut grads = Grads::new();
            let _ = lin.backward(&dy, &tape, &mut grads);
            grads.merge_into(lin);
        };
        step(&mut lin);
        let g1 = lin.w.grad.clone();
        step(&mut lin);
        assert!(lin.w.grad.approx_eq(&g1.scaled(2.0), 1e-5, 1e-5));
    }

    mod protected {
        use super::*;
        use attnchecker::attention::SectionToggles;
        use attnchecker::config::ProtectionConfig;
        use attnchecker::report::{AbftReport, SectionId};

        /// Returns `(output, input tape, report)`.
        fn guarded_forward(
            lin: &ProtectedLinear,
            x: &Matrix,
            active: bool,
            hook: Option<attnchecker::attention::FaultHook<'_>>,
        ) -> (Matrix, Matrix, AbftReport) {
            let mut report = AbftReport::default();
            let (out, tape) = {
                let mut ctx = ForwardCtx {
                    mask: None,
                    toggles: SectionToggles::all(),
                    hook,
                    report: &mut report,
                };
                let sec = GuardedSection::begin(
                    SectionId::FeedForward,
                    &ProtectionConfig::full(),
                    active,
                    ctx.report,
                );
                let xc = sec.encode_cols(x);
                let (y, tape) = lin.forward(&xc, &sec, &mut ctx);
                (y.logical(), tape)
            };
            (out, tape, report)
        }

        #[test]
        fn fault_free_guarded_forward_is_bit_identical() {
            let mut rng = TensorRng::seed_from(11);
            let lin = ProtectedLinear::new("p", 6, 8, AttnOp::Ffn1, &mut rng);
            let x = rng.normal_matrix(4, 6, 1.0);
            let (plain, _) = lin.inner.forward(&x);
            for active in [false, true] {
                let (y, _, report) = guarded_forward(&lin, &x, active, None);
                assert_eq!(y, plain, "active={active}");
                assert!(report.is_quiet());
            }
        }

        #[test]
        fn injected_extreme_is_corrected_to_exact_bits() {
            let mut rng = TensorRng::seed_from(12);
            let lin = ProtectedLinear::new("p", 6, 8, AttnOp::Ffn1, &mut rng);
            let x = rng.normal_matrix(4, 6, 1.0);
            let (plain, _) = lin.inner.forward(&x);
            let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                assert_eq!(site.op, AttnOp::Ffn1);
                m.set(1, 3, f32::NEG_INFINITY);
            };
            let (y, tape, report) = guarded_forward(&lin, &x, true, Some(&mut hook));
            assert_eq!(y, plain, "exact replay must restore original bits");
            assert_eq!(report.correction_count(), 1);
            assert_eq!(report.corrections[0].section, SectionId::FeedForward);
            assert_eq!(report.unrecovered, 0);
            // The healed activation is what backward consumes.
            let dy = rng.normal_matrix(4, 8, 1.0);
            let dx = lin.backward(&dy, &tape, &mut Grads::new());
            assert!(dx.all_finite());
        }

        #[test]
        fn inactive_section_lets_fault_through() {
            let mut rng = TensorRng::seed_from(13);
            let lin = ProtectedLinear::new("p", 5, 5, AttnOp::Ffn2, &mut rng);
            let x = rng.normal_matrix(3, 5, 1.0);
            let mut hook = |_: FaultSite, m: &mut CheckedMatrix| m.set(0, 0, f32::NAN);
            let (y, _, report) = guarded_forward(&lin, &x, false, Some(&mut hook));
            assert!(!y.all_finite(), "no detection when the section is off");
            assert_eq!(report.correction_count(), 0);
        }
    }
}
