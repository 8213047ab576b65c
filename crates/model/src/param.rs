//! Learnable parameters with gradient and Adam-state storage, plus the
//! detached [`Grads`] buffer that tape-based backward passes write into.

use attn_tensor::Matrix;
use std::collections::BTreeMap;

/// A learnable tensor: value, accumulated gradient, and AdamW moments.
///
/// Biases are stored as `1 × n` matrices so every parameter flows through
/// the same optimizer and checkpoint paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Stable name used by checkpoints and debugging (e.g.
    /// `"block0.attn.wq"`).
    pub name: String,
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Matrix,
    /// AdamW first moment.
    pub m: Matrix,
    /// AdamW second moment.
    pub v: Matrix,
}

impl Param {
    /// Create a parameter from an initial value with zeroed grad/moments.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let (r, c) = (value.rows(), value.cols());
        Self {
            name: name.into(),
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }

    /// Zero-initialised parameter of the given shape (bias convention).
    pub fn zeros(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Self::new(name, Matrix::zeros(rows, cols))
    }

    /// Clear the accumulated gradient.
    fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// True when every value element is finite — the trainer scans this
    /// after each optimizer step to recognise non-trainable states.
    pub fn is_finite(&self) -> bool {
        self.value.all_finite()
    }

    /// Accumulate `g` into the gradient.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, g: &Matrix) {
        self.grad.axpy(1.0, g);
    }

    /// Bias view: the first row of a `1 × n` parameter as a slice.
    pub fn bias(&self) -> &[f32] {
        self.value.row(0)
    }
}

/// A detached gradient buffer, keyed by parameter name.
///
/// Tape-based backward passes take the model by `&self` and accumulate
/// their parameter gradients here instead of mutating [`Param::grad`] in
/// place. That is what makes a training step data-parallel: each batch
/// item backpropagates into a buffer of its own, and each buffer is folded
/// into the model in **fixed batch order** as soon as its item finishes,
/// so the floating-point reduction sequence — and therefore every
/// parameter bit — is independent of how items were scheduled across
/// threads. Folding zeroes the buffer, so one buffer serves item after
/// item without reallocating its slots.
#[derive(Debug, Clone, Default)]
pub struct Grads {
    map: BTreeMap<String, Matrix>,
}

impl Grads {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `g` into the named parameter's gradient slot.
    ///
    /// # Panics
    /// Panics if the same name is accumulated with mismatched shapes.
    pub fn accumulate(&mut self, name: &str, g: &Matrix) {
        match self.map.get_mut(name) {
            Some(m) => m.axpy(1.0, g),
            None => {
                self.map.insert(name.to_string(), g.clone());
            }
        }
    }

    /// Mutable access to the named gradient slot, created zeroed on first
    /// use — for scatter-style accumulation (embedding tables) that writes
    /// individual rows rather than whole matrices.
    pub fn matrix_mut(&mut self, name: &str, rows: usize, cols: usize) -> &mut Matrix {
        if !self.map.contains_key(name) {
            self.map.insert(name.to_string(), Matrix::zeros(rows, cols));
        }
        self.map.get_mut(name).expect("slot inserted above")
    }

    /// Read a gradient slot (mainly for tests).
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.map.get(name)
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Add every buffered gradient into the owning model's [`Param::grad`]
    /// storage, then zero the buffer's slots for the next item. Parameters
    /// are visited in the model's stable order, so merging several buffers
    /// one after another is a deterministic reduction. A reused buffer
    /// folds the same bits a fresh one would: its zeroed slots can differ
    /// from fresh ones only in the sign of a zero, and `Param::grad` never
    /// holds `-0.0` (it starts at `+0.0`, and only `-0.0 + -0.0` sums to
    /// `-0.0`), so adding either zero leaves it unchanged.
    ///
    /// # Panics
    /// Panics if the buffer holds a name the model does not own (a
    /// misspelled parameter name in a backward pass).
    pub fn merge_into<M: HasParams + ?Sized>(&mut self, model: &mut M) {
        let mut merged = 0usize;
        model.visit_params(&mut |p| {
            if let Some(g) = self.map.get_mut(p.name.as_str()) {
                p.accumulate(g);
                g.data_mut().fill(0.0);
                merged += 1;
            }
        });
        assert_eq!(
            merged,
            self.map.len(),
            "gradients for parameters the model does not own, among {:?}",
            self.map.keys()
        );
    }
}

/// Anything that owns parameters and can expose them to the optimizer and
/// checkpointer.
pub trait HasParams {
    /// Visit every parameter mutably, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zero all gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// True when all parameter values are finite.
    fn params_finite(&mut self) -> bool {
        let mut ok = true;
        self.visit_params(&mut |p| ok &= p.is_finite());
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_zeroed_state() {
        let p = Param::new("w", Matrix::full(2, 3, 1.5));
        assert_eq!(p.len(), 6);
        assert!(attn_tensor::float::all_exactly_zero(p.grad.data()));
        assert!(attn_tensor::float::all_exactly_zero(p.m.data()));
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::zeros("b", 1, 4);
        p.accumulate(&Matrix::full(1, 4, 2.0));
        p.accumulate(&Matrix::full(1, 4, 3.0));
        assert!(p.grad.data().iter().all(|&x| x == 5.0));
        p.zero_grad();
        assert!(attn_tensor::float::all_exactly_zero(p.grad.data()));
    }

    #[test]
    fn finite_scan() {
        let mut p = Param::new("w", Matrix::full(2, 2, 1.0));
        assert!(p.is_finite());
        p.value[(0, 1)] = f32::NAN;
        assert!(!p.is_finite());
    }

    struct Two {
        a: Param,
        b: Param,
    }

    impl HasParams for Two {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    #[test]
    fn grads_accumulate_and_merge() {
        let mut g = Grads::new();
        g.accumulate("a", &Matrix::full(2, 2, 1.0));
        g.accumulate("a", &Matrix::full(2, 2, 2.0));
        g.matrix_mut("b", 1, 3).row_mut(0)[1] = 7.0;
        assert!(g.get("a").unwrap().data().iter().all(|&x| x == 3.0));
        let mut t = Two {
            a: Param::zeros("a", 2, 2),
            b: Param::zeros("b", 1, 3),
        };
        g.merge_into(&mut t);
        assert!(t.a.grad.data().iter().all(|&x| x == 3.0));
        assert_eq!(t.b.grad[(0, 1)], 7.0);
        assert_eq!(t.b.grad[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic]
    fn grads_merge_rejects_unknown_names() {
        let mut g = Grads::new();
        g.accumulate("nope", &Matrix::zeros(1, 1));
        let mut t = Two {
            a: Param::zeros("a", 2, 2),
            b: Param::zeros("b", 1, 3),
        };
        g.merge_into(&mut t);
    }

    #[test]
    fn has_params_helpers() {
        let mut t = Two {
            a: Param::zeros("a", 2, 2),
            b: Param::zeros("b", 1, 3),
        };
        assert_eq!(t.param_count(), 7);
        t.a.accumulate(&Matrix::full(2, 2, 1.0));
        t.zero_grads();
        assert!(attn_tensor::float::all_exactly_zero(t.a.grad.data()));
        assert!(t.params_finite());
        t.b.value[(0, 0)] = f32::INFINITY;
        assert!(!t.params_finite());
    }
}
