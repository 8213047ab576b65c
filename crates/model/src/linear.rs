//! Affine layer `y = x·W + b` with manual backprop. Its guarded forward
//! is [`GuardedSection::project`](attnchecker::section::GuardedSection::project)
//! over the layer's weight and bias, as the FFN runs it; [`Linear::forward`]
//! is the unguarded form of the pooler, classifier and LM head.

use crate::param::{Grads, HasParams, Param};
use attn_tensor::gemm::{matmul, matmul_nt, matmul_tn};
use attn_tensor::ops::{add_bias_inplace, col_sums};
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;

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

    /// Forward `x·W + b`. Backward needs `x` again: a caller that trains
    /// tapes the input it owns, nothing is copied here.
    #[allow(
        clippy::disallowed_methods,
        reason = "unguarded by design: the pooler / classifier / LM head (ROADMAP item 9(b))"
    )]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = matmul(x, &self.w.value);
        add_bias_inplace(&mut y, self.b.bias());
        y
    }

    /// Backward over the taped input `x`: writes `dW = xᵀ·dy`, `db = Σrows(dy)`
    /// into `grads`, returns `dx = dy·Wᵀ`.
    #[allow(
        clippy::disallowed_methods,
        reason = "unguarded by design: backward consumes a tape the forward pass already healed"
    )]
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check against a scalar loss `Σ(y ⊙ dy)`.
    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = TensorRng::seed_from(1);
        let lin = Linear::new("t", 5, 4, &mut rng);
        let x = rng.normal_matrix(3, 5, 1.0);
        let dy = rng.normal_matrix(3, 4, 1.0);

        let mut grads = Grads::new();
        let dx = lin.backward(&dy, &x, &mut grads);
        let (dw, db) = (grads.get("t.w").unwrap(), grads.get("t.b").unwrap());

        let loss = |l: &Linear, xx: &Matrix| -> f32 {
            let y = l.forward(xx);
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
                    (fd - dw[(r, c)]).abs() < 2e-2,
                    "dW ({r},{c}): fd {fd} vs {}",
                    dw[(r, c)]
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
            assert!((fd - db[(0, c)]).abs() < 2e-2, "db {c}");
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = TensorRng::seed_from(2);
        let mut lin = Linear::new("t", 3, 2, &mut rng);
        lin.b.value[(0, 0)] = 10.0;
        let x = Matrix::zeros(4, 3);
        let y = lin.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert!((y[(0, 0)] - 10.0).abs() < 1e-6);
        assert!((y[(0, 1)]).abs() < 1e-6);
    }

    #[test]
    fn gradient_accumulates_across_calls() {
        let mut rng = TensorRng::seed_from(3);
        let lin = Linear::new("t", 3, 3, &mut rng);
        let x = rng.normal_matrix(2, 3, 1.0);
        let dy = rng.normal_matrix(2, 3, 1.0);
        let mut acc = Grads::new();
        let mut step = || {
            let mut grads = Grads::new();
            let _ = lin.backward(&dy, &x, &mut grads);
            grads.merge_into(&mut acc);
        };
        step();
        step();
        let mut once = Grads::new();
        let _ = lin.backward(&dy, &x, &mut once);
        let g1 = once.get("t.w").unwrap();
        assert!(acc
            .get("t.w")
            .unwrap()
            .approx_eq(&g1.scaled(2.0), 1e-5, 1e-5));
    }
}
