//! Layer normalisation with learnable scale/shift.

use crate::param::{Grads, HasParams, Param};
use attn_tensor::guard::{layer_norm_backward_checked, layer_norm_checked};
use attn_tensor::ops::LayerNormCache;
use attn_tensor::{Matrix, OpGuard};

/// LayerNorm over the hidden dimension.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale, `1 × hidden`, initialised to ones.
    pub gamma: Param,
    /// Shift, `1 × hidden`, initialised to zeros.
    pub beta: Param,
    /// Variance epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Standard initialisation (γ = 1, β = 0).
    pub fn new(name: &str, hidden: usize, eps: f32) -> Self {
        Self {
            gamma: Param::new(format!("{name}.gamma"), Matrix::full(1, hidden, 1.0)),
            beta: Param::zeros(format!("{name}.beta"), 1, hidden),
            eps,
        }
    }

    /// Forward: returns the output and the statistics tape. Under an
    /// active `g` each row is invariant-screened and recomputed exactly
    /// from the input on violation; [`OpGuard::off`] is the plain op.
    pub fn forward(&self, x: &Matrix, g: &OpGuard) -> (Matrix, LayerNormCache) {
        layer_norm_checked(x, self.gamma.bias(), self.beta.bias(), self.eps, g)
    }

    /// Backward over the statistics tape; γ/β gradients go into `grads`.
    /// Guarded like the forward — see
    /// [`attn_tensor::guard::verify_layer_norm_backward`].
    pub fn backward(
        &self,
        dy: &Matrix,
        cache: &LayerNormCache,
        grads: &mut Grads,
        g: &OpGuard,
    ) -> Matrix {
        let (dx, dgamma, dbeta) = layer_norm_backward_checked(dy, cache, self.gamma.bias(), g);
        grads.accumulate(&self.gamma.name, &Matrix::from_vec(1, dgamma.len(), dgamma));
        grads.accumulate(&self.beta.name, &Matrix::from_vec(1, dbeta.len(), dbeta));
        dx
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_tensor::rng::TensorRng;

    #[test]
    fn normalises_rows() {
        let mut rng = TensorRng::seed_from(1);
        let ln = LayerNorm::new("ln", 16, 1e-5);
        let x = rng.normal_matrix(4, 16, 5.0);
        let (y, _) = ln.forward(&x, &OpGuard::off());
        for r in 0..4 {
            let mu: f32 = y.row(r).iter().sum::<f32>() / 16.0;
            assert!(mu.abs() < 1e-4);
        }
    }

    #[test]
    fn gradient_check() {
        let mut rng = TensorRng::seed_from(2);
        let mut ln = LayerNorm::new("ln", 6, 1e-5);
        ln.gamma.value = rng.uniform_matrix(1, 6, 0.5, 1.5);
        ln.beta.value = rng.uniform_matrix(1, 6, -0.5, 0.5);
        let x = rng.normal_matrix(3, 6, 2.0);
        let dy = rng.normal_matrix(3, 6, 1.0);
        let (_, cache) = ln.forward(&x, &OpGuard::off());
        let mut grads = Grads::new();
        let dx = ln.backward(&dy, &cache, &mut grads, &OpGuard::off());
        let dgamma = grads.get("ln.gamma").unwrap();

        let loss = |l: &LayerNorm, xx: &Matrix| -> f32 {
            let (y, _) = l.forward(xx, &OpGuard::off());
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };
        let eps = 1e-2;
        for r in 0..3 {
            for c in 0..6 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 3e-2,
                    "dx ({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
        for c in 0..6 {
            let mut lp = ln.clone();
            lp.gamma.value[(0, c)] += eps;
            let mut lm = ln.clone();
            lm.gamma.value[(0, c)] -= eps;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((fd - dgamma[(0, c)]).abs() < 3e-2, "dgamma {c}");
        }
    }
}
