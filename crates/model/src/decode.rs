//! Autoregressive decode front-end for the causal architectures.
//!
//! [`DecodeState`] holds one session's per-layer [`AttnKvCache`]s;
//! [`TransformerModel::prefill`] runs the full protected forward over a
//! prompt and seeds the caches from its (post-correction) K/V tape;
//! [`TransformerModel::decode_step`] pushes one token through the per-row
//! image of the block pipeline — row-local layer norms, the single-query
//! guarded attention of `attnchecker::decode`, the guarded FFN on a
//! one-row matrix — and returns next-token logits.
//!
//! **Parity contract.** Every per-row computation follows the same
//! blocked accumulation contract as its full-forward counterpart, so the
//! logits of `decode_step` after any prefill/decode split are
//! bit-identical to [`TransformerModel::forward`] over the grown
//! prefix with the same protection config — fault-free *and* after a
//! corrected injection. Decoding is only defined for the causal decoders
//! (GPT-2 / GPT-Neo): a bidirectional encoder re-reads the whole sequence
//! at every position, so a KV cache cannot represent it.

use crate::block::BlockArch;
use crate::model::{InjectionSpec, ModelArch, TransformerModel};
use attn_tensor::guard::residual_add_checked;
use attn_tensor::Matrix;
use attnchecker::attention::SectionToggles;
use attnchecker::decode::{self, AttnKvCache};
use attnchecker::report::AbftReport;
use attnchecker::section::{ForwardCtx, GuardedSection};

/// One decode session's model-side state: per-layer KV caches plus the
/// number of consumed tokens. A state is either **live** or **parked**
/// (descheduled — see [`TransformerModel::park_state`]); the caches are the
/// same verified blocks either way, but only a live state can decode.
#[derive(Debug)]
pub struct DecodeState {
    layers: Vec<AttnKvCache>,
    parked: bool,
    pos: usize,
}

impl DecodeState {
    /// Tokens consumed so far (prompt + decoded).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the state is parked (descheduled until unparked).
    #[inline]
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Per-layer caches, mutable — campaigns and tests strike at-rest
    /// faults into a parked state's blocks here.
    pub fn layer_caches_mut(&mut self) -> &mut [AttnKvCache] {
        &mut self.layers
    }
}

impl TransformerModel {
    /// Does this architecture support KV-cached autoregressive decoding?
    pub fn supports_decode(&self) -> bool {
        matches!(self.config.arch, ModelArch::Gpt2 | ModelArch::GptNeo)
    }

    /// Tokens one session can hold before the position table is exhausted:
    /// the table's rows past the embedding's `pos_offset`. Saturating — a
    /// table smaller than the offset (a mis-sliced checkpoint) has capacity
    /// 0 rather than wrapping.
    pub fn position_capacity(&self) -> usize {
        let e = &self.embedding;
        e.pos.value.rows().saturating_sub(e.pos_offset)
    }

    /// Fresh decode state for this model (empty caches, position 0).
    /// Caches maintain checksums unless protection is hard-off.
    ///
    /// # Panics
    /// Panics for non-causal architectures.
    pub fn new_decode_state(&self) -> DecodeState {
        assert!(
            self.supports_decode(),
            "KV-cached decode requires a causal architecture (GPT-2 / GPT-Neo)"
        );
        let checksummed = !self.protection().is_off();
        DecodeState {
            layers: self
                .blocks
                .iter()
                .map(|_| AttnKvCache::new(self.config.hidden, self.config.heads, checksummed))
                .collect(),
            parked: false,
            pos: 0,
        }
    }

    /// Verify-on-move **park**: verify every KV block/row of `state`
    /// against its checksums where it lies (under the model's ABFT
    /// config) and mark the state descheduled. Damage found is corrected
    /// and recorded in `report`. No-op if the state is already parked.
    pub fn park_state(&self, state: &mut DecodeState, report: &mut AbftReport) {
        if !state.parked {
            self.verify_state(state, report);
            state.parked = true;
        }
    }

    /// Verify-on-move **unpark**: verify the parked blocks again — damage
    /// acquired at rest is corrected before any row rejoins the hot path —
    /// and mark the state live. A fault-free park/unpark round trip leaves
    /// every cache bit, and so the decode stream, identical to never
    /// having parked. No-op if the state is live.
    pub fn unpark_state(&self, state: &mut DecodeState, report: &mut AbftReport) {
        if state.parked {
            self.verify_state(state, report);
            state.parked = false;
        }
    }

    fn verify_state(&self, state: &mut DecodeState, report: &mut AbftReport) {
        let abft = &self.protection().abft;
        for cache in &mut state.layers {
            cache.verify(abft, report);
        }
    }

    /// The single mask row of token `row` over a `len`-long prefix for
    /// block `layer` — row `row` of [`Self::mask_for_layer`] restricted to
    /// `len` columns, produced without materialising the full matrix.
    fn mask_row_for_layer(&self, layer: usize, row: usize, len: usize) -> Matrix {
        self.causal_mask_rows(layer, row..row + 1, len)
    }

    /// Run the full protected forward over `tokens` and seed `state`'s
    /// caches from the (post-correction) K/V activations, so subsequent
    /// [`Self::decode_step`]s continue bit-identically to having decoded
    /// the prompt token by token. Returns the next-token logits
    /// (`1 × num_classes`).
    ///
    /// # Panics
    /// Panics when `state` is not fresh, `tokens` is empty, or the
    /// architecture does not decode.
    pub fn prefill(
        &self,
        tokens: &[usize],
        state: &mut DecodeState,
        toggles: SectionToggles,
        report: &mut AbftReport,
    ) -> Matrix {
        assert!(self.supports_decode(), "prefill: non-causal architecture");
        assert_eq!(state.pos, 0, "prefill: state already holds tokens");
        assert!(!tokens.is_empty(), "prefill: empty prompt");
        let (logits, tape) = self.forward(tokens, toggles, None, report);
        for (cache, bt) in state.layers.iter_mut().zip(&tape.blocks) {
            cache.seed(&bt.attn.k, &bt.attn.v);
        }
        state.pos = tokens.len();
        logits
    }

    /// Decode one token at position `state.pos()`: append it to every
    /// layer's KV cache and return the next-token logits
    /// (`1 × num_classes`), bit-identical to re-running the full protected
    /// forward over the grown prefix. `inject` optionally plants one fault
    /// at a decode-time GEMM site, exactly like the training forward's
    /// injection plumbing.
    ///
    /// # Panics
    /// Panics on out-of-vocabulary tokens, exhausted position table, or a
    /// non-causal architecture.
    pub fn decode_step(
        &self,
        token: usize,
        state: &mut DecodeState,
        toggles: SectionToggles,
        inject: Option<&InjectionSpec>,
        report: &mut AbftReport,
    ) -> Matrix {
        assert!(
            self.supports_decode(),
            "decode_step: non-causal architecture"
        );
        assert!(
            !state.is_parked(),
            "decode_step: state is parked — unpark_state first"
        );
        let t = state.pos;
        let protection = self.protection();
        // Non-GEMM op guard for the whole decode step: embedding row sum,
        // per-block LayerNorms and residual adds, final LN.
        let op_guard = GuardedSection::guard_step(protection);

        // ---- embedding row (token + position) at sequence position `t`.
        let mut h = self.embedding.forward(&[token], t, &op_guard);

        // ---- blocks: pre-LN row pipeline with cached attention.
        for (i, (block, cache)) in self.blocks.iter().zip(&mut state.layers).enumerate() {
            assert_eq!(block.arch, BlockArch::PreLn, "causal blocks are pre-LN");
            let mask_row = self.mask_row_for_layer(i, t, t + 1);

            let mut hook = inject.filter(|s| s.layer == i).map(|s| s.hook());
            let mut ctx = ForwardCtx {
                mask: Some(&mask_row),
                toggles,
                hook: hook.as_mut().map(|h| h as _),
                report: &mut *report,
            };

            let (n1, _) = block.ln1.forward(&h, &op_guard);
            let a = decode::decode_step(&block.attn.weights(), protection, &n1, cache, &mut ctx);
            let res = residual_add_checked(&h, &a, &op_guard);
            let (n2, _) = block.ln2.forward(&res, &op_guard);
            let (f, _) = block.ffn.forward(&n2, protection, &mut ctx);
            h = residual_add_checked(&res, &f, &op_guard);
        }

        // ---- head: final LN on the single row, then the classifier.
        if let Some(ln) = &self.final_ln {
            let (y, _) = ln.forward(&h, &op_guard);
            h = y;
        }
        let (logits, _) = self.classifier.forward(&h);
        state.pos = t + 1;
        report.absorb_op_guard(op_guard.take_stats());
        logits
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // step index t addresses parallel token/logit structures
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use attn_fault::FaultKind;
    use attn_tensor::rng::TensorRng;
    use attnchecker::attention::AttnOp;
    use attnchecker::config::ProtectionConfig;

    fn gpt(arch: ModelArch, protection: ProtectionConfig) -> TransformerModel {
        let mut rng = TensorRng::seed_from(31);
        let mut cfg = match arch {
            ModelArch::GptNeo => ModelConfig::gpt_neo(),
            _ => ModelConfig::gpt2(),
        };
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 2;
        cfg.local_window = 3;
        TransformerModel::new(cfg, protection, &mut rng)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn check_parity(arch: ModelArch, prefill_len: usize) {
        let m = gpt(arch, ProtectionConfig::full());
        let tokens: Vec<usize> = (0..10).map(|i| (i * 37 + 5) % m.config.vocab).collect();
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let logits0 = m.prefill(
            &tokens[..prefill_len],
            &mut state,
            SectionToggles::all(),
            &mut report,
        );
        // Prefill logits are the full-forward logits of the prompt.
        let mut r = AbftReport::default();
        let (full0, _) = m.forward(&tokens[..prefill_len], SectionToggles::all(), None, &mut r);
        assert_eq!(bits(&logits0), bits(&full0), "prefill logits");

        for t in prefill_len..tokens.len() {
            let logits = m.decode_step(
                tokens[t],
                &mut state,
                SectionToggles::all(),
                None,
                &mut report,
            );
            let mut r = AbftReport::default();
            let (full, _) = m.forward(&tokens[..=t], SectionToggles::all(), None, &mut r);
            assert_eq!(
                bits(&logits),
                bits(&full),
                "{arch:?} prefill={prefill_len} t={t}: decode logits diverged from full forward"
            );
        }
        assert!(report.is_quiet(), "fault-free decode must be quiet");
    }

    #[test]
    fn gpt2_decode_is_bit_identical_to_full_forward_at_several_prefills() {
        for prefill in [1, 4, 8] {
            check_parity(ModelArch::Gpt2, prefill);
        }
    }

    #[test]
    fn gpt_neo_local_attention_decode_is_bit_identical() {
        for prefill in [1, 5] {
            check_parity(ModelArch::GptNeo, prefill);
        }
    }

    #[test]
    fn mask_row_matches_full_mask_row() {
        let m = gpt(ModelArch::GptNeo, ProtectionConfig::off());
        for layer in 0..2 {
            for len in 1..9 {
                let full = m.mask_for_layer(layer, len).unwrap();
                let row = m.mask_row_for_layer(layer, len - 1, len);
                for c in 0..len {
                    assert_eq!(
                        row[(0, c)],
                        full[(len - 1, c)],
                        "layer={layer} len={len} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_decode_fault_is_corrected_to_fault_free_bits() {
        let m = gpt(ModelArch::Gpt2, ProtectionConfig::full());
        let tokens: Vec<usize> = (0..8).map(|i| (i * 11 + 3) % m.config.vocab).collect();

        // Fault-free reference decode.
        let mut clean_state = m.new_decode_state();
        let mut r = AbftReport::default();
        let _ = m.prefill(
            &tokens[..4],
            &mut clean_state,
            SectionToggles::all(),
            &mut r,
        );
        let mut clean_logits = Vec::new();
        for t in 4..tokens.len() {
            clean_logits.push(m.decode_step(
                tokens[t],
                &mut clean_state,
                SectionToggles::all(),
                None,
                &mut r,
            ));
        }

        for op in [AttnOp::Q, AttnOp::AS, AttnOp::CL, AttnOp::Ffn1] {
            let mut state = m.new_decode_state();
            let mut report = AbftReport::default();
            let _ = m.prefill(&tokens[..4], &mut state, SectionToggles::all(), &mut report);
            let spec = InjectionSpec {
                layer: 1,
                op,
                head: 0,
                row: 0,
                col: 5,
                kind: FaultKind::Inf,
            };
            for (idx, t) in (4..tokens.len()).enumerate() {
                let inject = (idx == 1).then_some(&spec);
                let logits = m.decode_step(
                    tokens[t],
                    &mut state,
                    SectionToggles::all(),
                    inject,
                    &mut report,
                );
                assert_eq!(
                    bits(&logits),
                    bits(&clean_logits[idx]),
                    "{op:?} step {idx}: corrected decode must match fault-free bits"
                );
            }
            assert!(report.correction_count() > 0, "{op:?}: no corrections");
            assert_eq!(report.unrecovered, 0, "{op:?}");
        }
    }

    #[test]
    fn unprotected_decode_fault_propagates_to_logits() {
        let m = gpt(ModelArch::Gpt2, ProtectionConfig::off());
        let tokens: Vec<usize> = (0..6).collect();
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let _ = m.prefill(
            &tokens[..3],
            &mut state,
            SectionToggles::none(),
            &mut report,
        );
        let spec = InjectionSpec {
            layer: 0,
            op: AttnOp::K,
            head: 0,
            row: 0,
            col: 2,
            kind: FaultKind::NaN,
        };
        let logits = m.decode_step(
            tokens[3],
            &mut state,
            SectionToggles::none(),
            Some(&spec),
            &mut report,
        );
        assert!(
            !logits.all_finite(),
            "unprotected NaN must reach the logits"
        );
    }

    #[test]
    fn park_unpark_mid_decode_preserves_bit_parity() {
        let m = gpt(ModelArch::Gpt2, ProtectionConfig::full());
        let tokens: Vec<usize> = (0..9).map(|i| (i * 13 + 2) % m.config.vocab).collect();

        // Uninterrupted reference stream.
        let mut ref_state = m.new_decode_state();
        let mut r = AbftReport::default();
        let _ = m.prefill(&tokens[..3], &mut ref_state, SectionToggles::all(), &mut r);
        let mut ref_logits = Vec::new();
        for t in 3..tokens.len() {
            ref_logits.push(m.decode_step(
                tokens[t],
                &mut ref_state,
                SectionToggles::all(),
                None,
                &mut r,
            ));
        }

        // Same stream, parked and unparked between two decode steps.
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let _ = m.prefill(&tokens[..3], &mut state, SectionToggles::all(), &mut report);
        for (idx, t) in (3..tokens.len()).enumerate() {
            if idx == 2 {
                m.park_state(&mut state, &mut report);
                assert!(state.is_parked());
                m.unpark_state(&mut state, &mut report);
                assert!(!state.is_parked());
            }
            let logits = m.decode_step(
                tokens[t],
                &mut state,
                SectionToggles::all(),
                None,
                &mut report,
            );
            assert_eq!(
                bits(&logits),
                bits(&ref_logits[idx]),
                "step {idx}: park/unpark broke the decode stream"
            );
        }
        assert_eq!(report.detections, 0, "fault-free move must be quiet");
    }

    #[test]
    #[should_panic]
    fn parked_state_cannot_decode() {
        let m = gpt(ModelArch::Gpt2, ProtectionConfig::full());
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let _ = m.prefill(&[1, 2, 3], &mut state, SectionToggles::all(), &mut report);
        m.park_state(&mut state, &mut report);
        let _ = m.decode_step(4, &mut state, SectionToggles::all(), None, &mut report);
    }

    #[test]
    #[should_panic]
    fn bert_cannot_decode() {
        let mut rng = TensorRng::seed_from(1);
        let m = TransformerModel::new(ModelConfig::bert_small(), ProtectionConfig::off(), &mut rng);
        let _ = m.new_decode_state();
    }
}
