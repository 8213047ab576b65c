//! Learnable parameters, and the name-keyed [`Grads`] buffers that
//! backward passes write into and training steps fold.
//!
//! A [`Param`] is a name and a value, nothing else: a model built only to
//! serve holds its weights once. The training state lives with the two
//! places that use it — the gradient accumulator is a [`Grads`] local to
//! one `Trainer` step, and the AdamW moments are the optimizer's slots
//! (`optim::Slot`), created by the first training step.

use attn_tensor::Matrix;
use std::collections::BTreeMap;

/// A learnable tensor: a stable name and its current value.
///
/// Biases are stored as `1 × n` matrices so every parameter flows through
/// the same optimizer and checkpoint paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Stable name used by gradients, checkpoints and debugging (e.g.
    /// `"block0.attn.wq"`).
    pub name: String,
    /// Current value.
    pub value: Matrix,
}

impl Param {
    /// Create a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        Self {
            name: name.into(),
            value,
        }
    }

    /// Zero-initialised parameter of the given shape (bias convention).
    pub fn zeros(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Self::new(name, Matrix::zeros(rows, cols))
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

    /// Bias view: the first row of a `1 × n` parameter as a slice.
    pub fn bias(&self) -> &[f32] {
        self.value.row(0)
    }
}

/// A gradient buffer, keyed by parameter name.
///
/// Tape-based backward passes take the model by `&self` and accumulate
/// their parameter gradients into a buffer of their own. That is what makes
/// a training step data-parallel: each batch item backpropagates into its
/// own buffer, and each buffer is folded into the step's accumulator —
/// another `Grads` — in **fixed batch order** as soon as its item finishes,
/// so the floating-point reduction sequence, and therefore every parameter
/// bit, is independent of how items were scheduled across threads. The
/// first item of each wave backpropagates straight into the accumulator:
/// a backward pass adds into each parameter's slot exactly once (the token
/// table sums a repeated token's rows before its one add), so that is the
/// same sequence of additions as folding a buffer of its own. Folding
/// zeroes the buffer, so one buffer serves item after item without
/// reallocating its slots; `AdamW::step` reads the accumulator, and the
/// step then drops it.
#[derive(Debug, Clone, Default)]
pub struct Grads {
    map: BTreeMap<String, Matrix>,
}

impl Grads {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `g` into the named parameter's gradient slot, created
    /// zeroed (`+0.0`) on first use, so a slot never holds `-0.0`.
    ///
    /// # Panics
    /// Panics if the same name is accumulated with mismatched shapes.
    pub fn accumulate(&mut self, name: &str, g: &Matrix) {
        self.matrix_mut(name, g.rows(), g.cols()).axpy(1.0, g);
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

    /// Read a gradient slot.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.map.get(name)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The slot names, in order (for diagnostics).
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Add every buffered gradient into the accumulator `acc`, then zero
    /// this buffer's slots for the next item. `acc` creates a slot zeroed
    /// (`+0.0`) the first time it sees a name, so folding several buffers
    /// one after another is a deterministic reduction: each element is the
    /// same sequence of f32 additions, in fold order. No slot ever holds
    /// `-0.0` (every slot starts at `+0.0`, and only `-0.0 + -0.0` sums to
    /// `-0.0`), so a zero that a buffer adds leaves the accumulator as it
    /// was, whatever its sign.
    pub fn merge_into(&mut self, acc: &mut Grads) {
        for (name, g) in &mut self.map {
            acc.matrix_mut(name, g.rows(), g.cols()).axpy(1.0, g);
            g.data_mut().fill(0.0);
        }
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
        // A parameter is its name and value: no gradient or moment copies.
        let p = Param::zeros("b", 2, 3);
        assert_eq!(p.len(), 6);
        assert!(attn_tensor::float::all_exactly_zero(p.value.data()));
        assert_eq!(
            std::mem::size_of::<Param>(),
            std::mem::size_of::<String>() + std::mem::size_of::<Matrix>()
        );
    }

    #[test]
    fn accumulate_and_zero() {
        let mut item = Grads::new();
        item.accumulate("b", &Matrix::full(1, 4, 2.0));
        item.accumulate("b", &Matrix::full(1, 4, 3.0));
        assert!(item.get("b").unwrap().data().iter().all(|&x| x == 5.0));
        let mut acc = Grads::new();
        item.merge_into(&mut acc);
        assert!(acc.get("b").unwrap().data().iter().all(|&x| x == 5.0));
        assert!(attn_tensor::float::all_exactly_zero(
            item.get("b").unwrap().data()
        ));
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
        let mut acc = Grads::new();
        g.merge_into(&mut acc);
        g.accumulate("a", &Matrix::full(2, 2, 0.5));
        g.merge_into(&mut acc);
        assert!(acc.get("a").unwrap().data().iter().all(|&x| x == 3.5));
        assert_eq!(acc.get("b").unwrap()[(0, 1)], 7.0);
        assert_eq!(acc.get("b").unwrap()[(0, 0)], 0.0);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn accumulator_slots_never_hold_negative_zero() {
        // An item slot starts at +0.0, so accumulating -0.0 leaves it +0.0;
        // folded into a +0.0 accumulator it reads +0.0 as well.
        let mut item = Grads::new();
        item.accumulate("a", &Matrix::full(1, 2, -0.0));
        let mut acc = Grads::new();
        item.merge_into(&mut acc);
        item.merge_into(&mut acc);
        assert!(acc
            .get("a")
            .unwrap()
            .data()
            .iter()
            .all(|x| x.to_bits() == 0));
    }

    #[test]
    fn has_params_helpers() {
        let mut t = Two {
            a: Param::zeros("a", 2, 2),
            b: Param::zeros("b", 1, 3),
        };
        assert_eq!(t.param_count(), 7);
        assert!(t.params_finite());
        t.b.value[(0, 0)] = f32::INFINITY;
        assert!(!t.params_finite());
    }
}
