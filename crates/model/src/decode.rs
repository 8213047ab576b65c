//! Autoregressive serving front-end for the causal architectures.
//!
//! [`DecodeState`] holds one session's per-layer [`AttnKvCache`]s;
//! [`TransformerModel::extend`] pushes m ≥ 1 tokens through the training
//! forward's own pipeline — the same embedding, blocks and head, over the
//! session's caches instead of fresh ones and without a tape — appending
//! their K/V rows to every layer's cache, and returns the next-token logits
//! of the last one. A prompt is `extend` on a fresh state, a prefill chunk
//! or a decoded token one more `extend`.
//!
//! **Parity contract.** `extend` and [`TransformerModel::forward`] run the
//! same code, and every per-row computation in it follows the blocked
//! accumulation contract, whose order does not depend on the row count; so
//! the logits of `extend` after any chunking of the tokens are
//! bit-identical to the forward over the grown prefix with the same
//! protection config — fault-free *and* after a corrected injection.
//! Decoding is only defined for the causal decoders (GPT-2 / GPT-Neo): a
//! bidirectional encoder re-reads the whole sequence at every position,
//! so a KV cache cannot represent it.

use crate::model::{InjectionSpec, ModelArch, TransformerModel};
use attn_tensor::Matrix;
use attnchecker::attention::SectionToggles;
use attnchecker::decode::AttnKvCache;
use attnchecker::report::AbftReport;

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
        DecodeState {
            layers: self.blocks.iter().map(|_| self.new_kv_cache()).collect(),
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

    /// Feed `tokens` (m ≥ 1) at positions `state.pos()..`: append them to
    /// every layer's KV cache and return the next-token logits of the last
    /// one (`1 × num_classes`), bit-identical to the full protected forward
    /// over the grown prefix. It is the pipeline of [`Self::forward`] over
    /// the session's caches, without a tape: the blocks see the mask rows
    /// `pos..pos+m` (causal inside the chunk), and the final LN and the
    /// head run on the last row only. `inject` optionally plants one fault
    /// at a GEMM site, exactly like the training forward's injection
    /// plumbing.
    ///
    /// # Panics
    /// Panics on empty `tokens`, out-of-vocabulary tokens, an exhausted
    /// position table, a parked state, or a non-causal architecture.
    pub fn extend(
        &self,
        tokens: &[usize],
        state: &mut DecodeState,
        toggles: SectionToggles,
        inject: Option<&InjectionSpec>,
        report: &mut AbftReport,
    ) -> Matrix {
        assert!(self.supports_decode(), "extend: non-causal architecture");
        assert!(!state.is_parked(), "extend: state is parked — unpark first");
        assert!(!tokens.is_empty(), "extend: no tokens");
        let layers = Some(&mut state.layers[..]);
        let (logits, _) = self.run(tokens, state.pos, layers, toggles, inject, report);
        state.pos += tokens.len();
        logits
    }

    /// [`Self::extend`] on a fresh state, without injection — kept only
    /// because the benchmark's probes (`benchmark/src/probes.rs`) call it.
    ///
    /// # Panics
    /// Panics when `state` is not fresh, and as [`Self::extend`].
    pub fn prefill(
        &self,
        tokens: &[usize],
        state: &mut DecodeState,
        toggles: SectionToggles,
        report: &mut AbftReport,
    ) -> Matrix {
        assert_eq!(state.pos, 0, "prefill: state already holds tokens");
        self.extend(tokens, state, toggles, None, report)
    }

    /// [`Self::extend`] with one token — kept only because the benchmark's
    /// probes (`benchmark/src/probes.rs`) call it.
    ///
    /// # Panics
    /// As [`Self::extend`].
    pub fn decode_step(
        &self,
        token: usize,
        state: &mut DecodeState,
        toggles: SectionToggles,
        inject: Option<&InjectionSpec>,
        report: &mut AbftReport,
    ) -> Matrix {
        self.extend(&[token], state, toggles, inject, report)
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

    /// Prefill `chunks[0]` tokens, `extend` by each further chunk, then
    /// decode token by token: every logits row must be the full forward's.
    fn check_parity(arch: ModelArch, chunks: &[usize]) {
        let m = gpt(arch, ProtectionConfig::full());
        let tokens: Vec<usize> = (0..10).map(|i| (i * 37 + 5) % m.config.vocab).collect();
        let full = |n: usize| {
            let mut r = AbftReport::default();
            bits(
                &m.forward(&tokens[..n], SectionToggles::all(), None, &mut r)
                    .0,
            )
        };
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let prefill_len = chunks[0];
        let logits0 = m.prefill(
            &tokens[..prefill_len],
            &mut state,
            SectionToggles::all(),
            &mut report,
        );
        // Prefill logits are the full-forward logits of the prompt.
        assert_eq!(bits(&logits0), full(prefill_len), "prefill logits");
        let mut pos = prefill_len;
        for &n in &chunks[1..] {
            let chunk = &tokens[pos..pos + n];
            let logits = m.extend(chunk, &mut state, SectionToggles::all(), None, &mut report);
            pos += n;
            assert_eq!(
                bits(&logits),
                full(pos),
                "{arch:?} {chunks:?}: chunk to {pos}"
            );
        }

        for t in pos..tokens.len() {
            let logits = m.decode_step(
                tokens[t],
                &mut state,
                SectionToggles::all(),
                None,
                &mut report,
            );
            assert_eq!(
                bits(&logits),
                full(t + 1),
                "{arch:?} chunks={chunks:?} t={t}: decode logits diverged from full forward"
            );
        }
        assert!(report.is_quiet(), "fault-free decode must be quiet");
    }

    #[test]
    fn gpt2_decode_is_bit_identical_to_full_forward_at_several_prefills() {
        for chunks in [&[1][..], &[4], &[8], &[2, 3, 1], &[1, 6]] {
            check_parity(ModelArch::Gpt2, chunks);
        }
    }

    #[test]
    fn gpt_neo_local_attention_decode_is_bit_identical() {
        // Chunks wider than the local window (3) band inside themselves.
        for chunks in [&[1][..], &[5], &[2, 5, 1], &[7]] {
            check_parity(ModelArch::GptNeo, chunks);
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
