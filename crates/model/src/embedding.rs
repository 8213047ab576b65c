//! Token + learned positional embeddings.

use crate::param::{Grads, HasParams, Param};
use attn_tensor::guard::verify_rowsum_add;
use attn_tensor::rng::TensorRng;
use attn_tensor::{workspace, Matrix, OpGuard};

/// Token and position embedding table (the transformer input layer).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Token table, `vocab × hidden`.
    pub tok: Param,
    /// Position table, `max_seq × hidden`.
    pub pos: Param,
    /// Positions start at this offset (RoBERTa reserves low position ids
    /// for padding; BERT/GPT start at 0).
    pub pos_offset: usize,
}

impl Embedding {
    /// Truncated-normal initialised tables (std 0.02, transformer
    /// convention).
    pub fn new(
        name: &str,
        vocab: usize,
        max_seq: usize,
        hidden: usize,
        pos_offset: usize,
        rng: &mut TensorRng,
    ) -> Self {
        Self {
            tok: Param::new(
                format!("{name}.tok"),
                rng.trunc_normal_matrix(vocab, hidden, 0.02),
            ),
            pos: Param::new(
                format!("{name}.pos"),
                rng.trunc_normal_matrix(max_seq + pos_offset, hidden, 0.02),
            ),
            pos_offset,
        }
    }

    /// Embed `tokens`, the first sitting at sequence position `start_pos`
    /// (0 for a whole sequence; the decode position for a single appended
    /// token), into a `tokens.len() × hidden` matrix. The "tape" is the
    /// token sequence itself, which the caller already owns, so nothing
    /// extra is returned. Under an active `g` each gathered row is screened
    /// against the f64 sum transport `Σ tok_row + Σ pos_row ≈ Σ out_row`
    /// and healed element-wise from the (at-rest) tables on violation.
    ///
    /// # Panics
    /// Panics on out-of-vocabulary ids or positions past the position
    /// table.
    pub fn forward(&self, tokens: &[usize], start_pos: usize, g: &OpGuard) -> Matrix {
        let hidden = self.tok.value.cols();
        let mut out = Matrix::zeros(tokens.len(), hidden);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.tok.value.rows(), "token id {t} out of vocab");
            let p = start_pos + i + self.pos_offset;
            assert!(
                p < self.pos.value.rows(),
                "position table exhausted at {}",
                start_pos + i
            );
            let dst = out.row_mut(i);
            for (d, (&tv, &pv)) in dst
                .iter_mut()
                .zip(self.tok.value.row(t).iter().zip(self.pos.value.row(p)))
            {
                *d = tv + pv;
            }
            verify_rowsum_add(self.tok.value.row(t), self.pos.value.row(p), dst, g);
        }
        out
    }

    /// Backward of a whole-sequence (`start_pos = 0`) embed: scatter-add
    /// `dy` rows into the token and position gradient slots of `grads`.
    /// One table at a time, so each gradient slot is looked up once instead
    /// of once per token.
    ///
    /// Every slot row takes one add per call: a token that repeats has its
    /// `dy` rows summed in position order in a workspace row first. So
    /// backpropagating into a slot that already holds gradients gives the
    /// same bits as backpropagating into a fresh buffer and folding that
    /// in, which lets a training step send an item straight into its
    /// accumulator.
    pub fn backward(&self, dy: &Matrix, tokens: &[usize], grads: &mut Grads) {
        assert_eq!(dy.rows(), tokens.len());
        let dtok = grads.matrix_mut(&self.tok.name, self.tok.value.rows(), self.tok.value.cols());
        let mut sum = workspace::take(dy.cols());
        for (i, &t) in tokens.iter().enumerate() {
            if tokens[..i].contains(&t) {
                continue; // summed with its first occurrence
            }
            sum.fill(0.0);
            for j in (i..tokens.len()).filter(|&j| tokens[j] == t) {
                for (s, &d) in sum.iter_mut().zip(dy.row(j)) {
                    *s += d;
                }
            }
            for (g, &s) in dtok.row_mut(t).iter_mut().zip(sum.iter()) {
                *g += s;
            }
        }
        let dpos = grads.matrix_mut(&self.pos.name, self.pos.value.rows(), self.pos.value.cols());
        for i in 0..tokens.len() {
            let p = i + self.pos_offset;
            for (g, &d) in dpos.row_mut(p).iter_mut().zip(dy.row(i)) {
                *g += d;
            }
        }
    }
}

impl HasParams for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.tok);
        f(&mut self.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_adds_token_and_position() {
        let mut rng = TensorRng::seed_from(1);
        let emb = Embedding::new("e", 10, 8, 4, 0, &mut rng);
        let x = emb.forward(&[3, 7], 0, &OpGuard::off());
        for d in 0..4 {
            assert!((x[(0, d)] - emb.tok.value[(3, d)] - emb.pos.value[(0, d)]).abs() < 1e-6);
            assert!((x[(1, d)] - emb.tok.value[(7, d)] - emb.pos.value[(1, d)]).abs() < 1e-6);
        }
    }

    #[test]
    fn position_offset_shifts_rows() {
        let mut rng = TensorRng::seed_from(2);
        let emb = Embedding::new("e", 10, 8, 4, 2, &mut rng);
        let x = emb.forward(&[0], 0, &OpGuard::off());
        for d in 0..4 {
            assert!((x[(0, d)] - emb.tok.value[(0, d)] - emb.pos.value[(2, d)]).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_scatters_including_repeats() {
        let mut rng = TensorRng::seed_from(3);
        let emb = Embedding::new("e", 10, 8, 4, 0, &mut rng);
        let dy = Matrix::full(3, 4, 1.0);
        let mut grads = Grads::new();
        emb.backward(&dy, &[5, 5, 2], &mut grads);
        let tok = grads.get(&emb.tok.name).unwrap();
        let pos = grads.get(&emb.pos.name).unwrap();
        // Token 5 appears twice → gradient 2, token 2 once → 1.
        assert!(tok.row(5).iter().all(|&g| (g - 2.0).abs() < 1e-6));
        assert!(tok.row(2).iter().all(|&g| (g - 1.0).abs() < 1e-6));
        assert!(attn_tensor::float::all_exactly_zero(tok.row(0)));
        // Each position appears once.
        for p in 0..3 {
            assert!(pos.row(p).iter().all(|&g| (g - 1.0).abs() < 1e-6));
        }
    }

    #[test]
    fn backward_into_a_held_slot_folds_like_a_fresh_buffer() {
        // Token 5 repeats with two rows of 2^-24 over a slot holding 1.0.
        // Added to the slot one by one they round away, (1 + 2^-24) + 2^-24
        // = 1; a fresh buffer sums them first, 1 + (2^-24 + 2^-24) = 1 +
        // 2^-23. Backpropagating straight into the slot must read the same.
        let mut rng = TensorRng::seed_from(5);
        let emb = Embedding::new("e", 10, 8, 4, 0, &mut rng);
        let tiny = 2f32.powi(-24);
        let dy = Matrix::full(3, 4, tiny);
        let tokens = [5, 2, 5];
        let held = || {
            let mut acc = Grads::new();
            acc.matrix_mut(&emb.tok.name, 10, 4).row_mut(5).fill(1.0);
            acc
        };
        let mut direct = held();
        emb.backward(&dy, &tokens, &mut direct);
        let mut item = Grads::new();
        emb.backward(&dy, &tokens, &mut item);
        let mut folded = held();
        item.merge_into(&mut folded);
        for name in [&emb.tok.name, &emb.pos.name] {
            let bits = |g: &Grads| -> Vec<u32> {
                g.get(name)
                    .unwrap()
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(bits(&direct), bits(&folded), "{name}");
        }
        let row = direct.get(&emb.tok.name).unwrap().row(5);
        assert!(row.iter().all(|&g| g == 1.0 + 2.0 * tiny), "{row:?}");
    }

    #[test]
    #[should_panic]
    fn oov_token_panics() {
        let mut rng = TensorRng::seed_from(4);
        let emb = Embedding::new("e", 10, 8, 4, 0, &mut rng);
        let _ = emb.forward(&[11], 0, &OpGuard::off());
    }
}
