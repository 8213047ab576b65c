//! Miniature transformer classifiers: BERT, RoBERTa, GPT-2, GPT-Neo.
//!
//! These are architecture-faithful, CPU-scale stand-ins for the HuggingFace
//! models the paper fine-tunes on MRPC (§5.1):
//!
//! * **BERT / RoBERTa** — bidirectional post-LN encoder, embedding LN,
//!   `[CLS]`-pooled tanh head (RoBERTa differs in its padding-reserved
//!   position offset);
//! * **GPT-2** — causal pre-LN decoder with a final LN, last-token head;
//! * **GPT-Neo** — GPT-2 plus alternating global/local (banded) attention.
//!
//! Error-propagation behaviour (Table 2) and loss-NaN vulnerability
//! (Table 4) depend on the attention dataflow, softmax semantics, pooling
//! path, and optimizer dynamics — all preserved here — not on scale.
//!
//! A model runs one way: [`TransformerModel::forward`] returns the logits
//! and the example's activation tape, [`TransformerModel::backward`]
//! consumes it — both by `&self`, under the single [`ProtectionConfig`] the
//! model owns ([`TransformerModel::protection`]) and hands to every block.
//! Serving's [`TransformerModel::extend`] is the same pipeline over a
//! session's KV caches, without the tape.
//! Unprotected and attention-only runs are that config's value
//! ([`ProtectionConfig::off`] / [`ProtectionConfig::attention_only`]), not
//! another method.

use crate::block::{BlockArch, TransformerBlock};
use crate::embedding::Embedding;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::param::{Grads, HasParams, Param};
use crate::tape::{ExampleTape, HeadTape};
use attn_fault::FaultKind;
use attn_tensor::guard::softmax_rows_checked;
use attn_tensor::ops::{self, MASK_NEG};
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::attention::{AttnOp, FaultHook, FaultSite, SectionToggles};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::decode::AttnKvCache;
use attnchecker::report::AbftReport;
use attnchecker::section::Ctx;
use std::ops::Range;

/// Which of the four studied architectures a model instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelArch {
    /// Bidirectional post-LN encoder with `[CLS]` pooling.
    Bert,
    /// BERT architecture with RoBERTa's position-offset convention.
    Roberta,
    /// Causal pre-LN decoder, last-token head.
    Gpt2,
    /// GPT-2 with alternating global/local attention layers.
    GptNeo,
}

/// Hyper-parameters of one model instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Display name (matches the paper's figures).
    pub name: String,
    /// Architecture family.
    pub arch: ModelArch,
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Maximum sequence length.
    pub max_seq: usize,
    /// FFN expansion factor.
    pub ffn_mult: usize,
    /// Local-attention window (GPT-Neo odd layers).
    pub local_window: usize,
    /// Output classes (2 for MRPC-style paraphrase detection).
    pub num_classes: usize,
}

impl ModelConfig {
    /// Smallest BERT (the paper's Bert-small bar in Fig 7).
    pub fn bert_small() -> Self {
        Self {
            name: "Bert-small".into(),
            arch: ModelArch::Bert,
            vocab: 256,
            hidden: 32,
            heads: 2,
            layers: 2,
            max_seq: 32,
            ffn_mult: 4,
            local_window: 8,
            num_classes: 2,
        }
    }

    /// Mid-size BERT (the paper's default Bert).
    pub fn bert_base() -> Self {
        Self {
            name: "Bert-base".into(),
            hidden: 64,
            heads: 4,
            ..Self::bert_small()
        }
    }

    /// Largest BERT variant.
    pub fn bert_large() -> Self {
        Self {
            name: "Bert-large".into(),
            hidden: 96,
            heads: 6,
            layers: 3,
            ..Self::bert_small()
        }
    }

    /// GPT-2-style causal decoder.
    pub fn gpt2() -> Self {
        Self {
            name: "GPT-2".into(),
            arch: ModelArch::Gpt2,
            hidden: 64,
            heads: 4,
            ..Self::bert_small()
        }
    }

    /// GPT-Neo-style decoder with alternating local attention.
    pub fn gpt_neo() -> Self {
        Self {
            name: "GPT-Neo".into(),
            arch: ModelArch::GptNeo,
            hidden: 64,
            heads: 4,
            ..Self::bert_small()
        }
    }

    /// RoBERTa-style encoder.
    pub fn roberta() -> Self {
        Self {
            name: "Roberta".into(),
            arch: ModelArch::Roberta,
            hidden: 64,
            heads: 4,
            ..Self::bert_small()
        }
    }

    /// The four models of the paper's main evaluation.
    pub fn paper_four() -> Vec<ModelConfig> {
        vec![
            Self::bert_base(),
            Self::gpt2(),
            Self::gpt_neo(),
            Self::roberta(),
        ]
    }

    /// The six models of Fig 7.
    pub fn paper_six() -> Vec<ModelConfig> {
        vec![
            Self::bert_small(),
            Self::bert_base(),
            Self::bert_large(),
            Self::gpt2(),
            Self::gpt_neo(),
            Self::roberta(),
        ]
    }

    /// Scale the configuration up for timing experiments: doubled width and
    /// sequence length so fixed ABFT costs amortise the way they do at the
    /// paper's model sizes (the campaign-sized configs above keep
    /// fault-injection runs fast instead).
    pub fn scaled_for_timing(mut self) -> Self {
        self.hidden *= 2;
        self.max_seq = 64;
        self.local_window = 16;
        self
    }
}

/// One planned fault injection inside a forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionSpec {
    /// Transformer block index to strike.
    pub layer: usize,
    /// Which GEMM output to strike.
    pub op: AttnOp,
    /// Head for per-head sites (`AS`, `CL`, `V`); ignored for `Q`/`K`/`O`.
    pub head: usize,
    /// Victim row (reduced modulo the matrix height).
    pub row: usize,
    /// Victim column (reduced modulo the matrix width).
    pub col: usize,
    /// Fault class.
    pub kind: FaultKind,
}

impl InjectionSpec {
    /// One-shot fault hook: strikes the first GEMM output whose site
    /// matches this spec, then goes inert. The strike covers the logical
    /// cells of the victim row only, never its checksum columns, so region
    /// kinds (`StuckRow`, `Burst`) plant their whole span.
    pub(crate) fn hook(self) -> impl FnMut(FaultSite, &mut CheckedMatrix) {
        let mut fired = false;
        move |site, m| {
            if fired || site.op != self.op || site.head.is_some_and(|h| h != self.head) {
                return;
            }
            fired = true;
            let (r, cols) = (self.row % m.rows(), m.cols());
            self.kind
                .strike(&mut m.buf_mut().row_mut(r)[..cols], self.col % cols);
        }
    }
}

/// A full transformer classifier.
#[derive(Debug, Clone)]
pub struct TransformerModel {
    /// Hyper-parameters.
    pub config: ModelConfig,
    /// Input embeddings.
    pub embedding: Embedding,
    /// Embedding LayerNorm (BERT family).
    pub emb_ln: Option<LayerNorm>,
    /// Transformer blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Final LayerNorm (GPT family).
    pub final_ln: Option<LayerNorm>,
    /// `[CLS]` pooler (BERT family).
    pub pooler: Option<Linear>,
    /// Classification head.
    pub classifier: Linear,
    /// The one protection policy every layer of this model runs under
    /// (strategy + thresholds + section frequencies; per-execution toggles
    /// come from the trainer's / engine's frequency gates).
    protection: ProtectionConfig,
}

impl TransformerModel {
    /// Build a model running under the given protection policy.
    pub fn new(config: ModelConfig, protection: ProtectionConfig, rng: &mut TensorRng) -> Self {
        let is_bert = matches!(config.arch, ModelArch::Bert | ModelArch::Roberta);
        let arch = if is_bert {
            BlockArch::PostLn
        } else {
            BlockArch::PreLn
        };
        let pos_offset = if config.arch == ModelArch::Roberta {
            2
        } else {
            0
        };
        let embedding = Embedding::new(
            "emb",
            config.vocab,
            config.max_seq,
            config.hidden,
            pos_offset,
            rng,
        );
        let blocks = (0..config.layers)
            .map(|i| {
                TransformerBlock::new(
                    &format!("block{i}"),
                    config.hidden,
                    config.heads,
                    config.hidden * config.ffn_mult,
                    arch,
                    rng,
                )
            })
            .collect();
        let emb_ln = is_bert.then(|| LayerNorm::new("emb.ln", config.hidden, 1e-5));
        let final_ln = (!is_bert).then(|| LayerNorm::new("final.ln", config.hidden, 1e-5));
        let pooler = is_bert.then(|| Linear::new("pooler", config.hidden, config.hidden, rng));
        let classifier = Linear::new("classifier", config.hidden, config.num_classes, rng);
        Self {
            config,
            embedding,
            emb_ln,
            blocks,
            final_ln,
            pooler,
            classifier,
            protection,
        }
    }

    /// The protection policy in force.
    pub fn protection(&self) -> &ProtectionConfig {
        &self.protection
    }

    /// Change the protection policy for every layer.
    pub fn set_protection(&mut self, protection: ProtectionConfig) {
        self.protection = protection;
    }

    /// A fresh KV cache for one block: checksummed unless protection is
    /// hard-off.
    pub(crate) fn new_kv_cache(&self) -> AttnKvCache {
        let c = &self.config;
        AttnKvCache::new(c.hidden, c.heads, !self.protection.is_off())
    }

    /// How many distinct causal masks a pass applies: block `layer` applies
    /// kind `layer % kinds`, and kind 1 — GPT-Neo's odd blocks — is local.
    fn mask_kinds(&self) -> usize {
        1 + usize::from(self.config.arch == ModelArch::GptNeo)
    }

    /// Rows `rows` of block `layer`'s additive causal mask over `len` keys
    /// — the one statement of the mask rule: query `r` never sees a later
    /// key, and on a local block (see [`Self::mask_kinds`]) it sees only
    /// the `local_window` keys ending at itself. [`Self::run`] builds the
    /// rows of the tokens it feeds.
    pub(crate) fn causal_mask_rows(&self, layer: usize, rows: Range<usize>, len: usize) -> Matrix {
        let local = layer % self.mask_kinds() == 1;
        let w = self.config.local_window;
        Matrix::from_fn(rows.len(), len, |i, c| {
            let r = rows.start + i;
            if c > r || (local && r >= c + w) {
                MASK_NEG
            } else {
                0.0
            }
        })
    }

    /// Forward of one example under [`Self::protection`]; returns the
    /// `1 × num_classes` logits and the full activation tape: the pipeline
    /// of [`Self::extend`] over fresh KV caches, recording the tape.
    ///
    /// Takes the model by `&self`, so a whole batch can forward
    /// concurrently against shared parameters — each item owns its tape,
    /// report, and (optional) injection hook.
    ///
    /// `toggles` selects which protection sections run this pass;
    /// `inject` optionally plants one fault at a specific pipeline site.
    pub fn forward(
        &self,
        tokens: &[usize],
        toggles: SectionToggles,
        inject: Option<&InjectionSpec>,
        report: &mut AbftReport,
    ) -> (Matrix, ExampleTape) {
        let (logits, tape) = self.run(tokens, 0, None, toggles, inject, report);
        (logits, tape.expect("a training run records its tape"))
    }

    /// The one model pipeline, behind [`Self::forward`] and
    /// [`Self::extend`]: the embedding at positions `pos..`, every block
    /// (causal models with the mask rows of those positions), and the head
    /// on the selected row — `[CLS]`, or the last token. With a decode
    /// `session`'s per-layer caches they grow and no tape is recorded;
    /// without (training) each block gets a fresh cache and the tape is
    /// recorded. One [`Ctx`] covers the whole pass; each block reads its
    /// mask kind and, at the injected layer only, the hook from it.
    pub(crate) fn run(
        &self,
        tokens: &[usize],
        pos: usize,
        mut session: Option<&mut [AttnKvCache]>,
        toggles: SectionToggles,
        inject: Option<&InjectionSpec>,
        report: &mut AbftReport,
    ) -> (Matrix, Option<ExampleTape>) {
        let (taped, len) = (session.is_none(), pos + tokens.len());
        let causal = self.supports_decode();
        // Each mask kind in use is built once per pass.
        let kinds = self.mask_kinds().min(self.blocks.len());
        let masks: [Option<Matrix>; 2] = std::array::from_fn(|kind| {
            (causal && kind < kinds).then(|| self.causal_mask_rows(kind, pos..len, len))
        });
        let mut strike = inject.map(|s| s.hook());
        let mut hook: Option<FaultHook> = strike.as_mut().map(|h| h as _);
        let mut ctx = Ctx::new(&self.protection, toggles, report);
        ctx.taped = taped;

        let mut h = self.embedding.forward(tokens, pos, ctx.guard());
        let emb_ln = self.emb_ln.as_ref().map(|ln| {
            let (y, stats) = ln.forward(&h, ctx.guard());
            h = y;
            stats
        });
        let mut block_tapes = Vec::with_capacity(if taped { self.blocks.len() } else { 0 });
        for (i, block) in self.blocks.iter().enumerate() {
            ctx.mask = masks[i % kinds].as_ref();
            // The one-shot hook strikes only its own block.
            ctx.hook = inject.filter(|s| s.layer == i).and_then(|_| hook.take());
            // A training block's fresh cache lives only as long as it runs.
            let mut fresh = None;
            let cache = match session.as_deref_mut() {
                Some(layers) => &mut layers[i],
                None => fresh.insert(self.new_kv_cache()),
            };
            let (y, tape) = block.forward(&h, cache, &mut ctx);
            h = y;
            block_tapes.extend(tape);
        }

        // The selected row moves to the top (a no-op for `[CLS]` and at
        // m = 1); the head reads it alone.
        let select_row = if causal { tokens.len() - 1 } else { 0 };
        let cols = h.cols();
        let start = select_row * cols;
        h.data_mut().copy_within(start..start + cols, 0);
        let mut row = h.into_top_rows(1);
        let final_ln = self.final_ln.as_ref().map(|ln| {
            let (y, stats) = ln.forward(&row, ctx.guard());
            row = y;
            stats
        });
        let (pooler_x, classifier_x) = match &self.pooler {
            Some(pooler) => {
                let mut pooled = pooler.forward(&row);
                pooled
                    .data_mut()
                    .iter_mut()
                    .for_each(|v| *v = ops::tanh(*v));
                (Some(row), pooled)
            }
            None => (None, row),
        };
        let logits = self.classifier.forward(&classifier_x);
        let tape = taped.then(|| ExampleTape {
            tokens: tokens.to_vec(),
            emb_ln,
            blocks: block_tapes,
            head: HeadTape {
                select_row,
                final_ln,
                pooler_x,
                classifier_x,
            },
        });
        (logits, tape)
    }

    /// Backward of one example from the logits gradient over its
    /// activation tape; parameter gradients go into `grads`. The non-GEMM
    /// ops (softmax Jacobian, LayerNorm backward, GELU derivative, residual
    /// gradient sums) run under the one `g` scope.
    pub fn backward(&self, dlogits: &Matrix, tape: &ExampleTape, grads: &mut Grads, g: &OpGuard) {
        let head = &tape.head;
        let mut d = self.classifier.backward(dlogits, &head.classifier_x, grads);
        if let Some(pooler) = &self.pooler {
            // d(tanh(u)) = (1 - tanh²(u)) du, tanh(u) being the classifier input
            d = d.zip(&head.classifier_x, |g, t| g * (1.0 - t * t));
            let px = head.pooler_x.as_ref().expect("pooler input tape");
            d = pooler.backward(&d, px, grads);
        }
        if let Some(ln) = &self.final_ln {
            let stats = head.final_ln.as_ref().expect("final LN tape");
            d = ln.backward(&d, stats, grads, g);
        }
        let mut dh = Matrix::zeros(tape.tokens.len(), self.config.hidden);
        dh.row_mut(head.select_row).copy_from_slice(d.row(0));

        for (block, bt) in self.blocks.iter().zip(&tape.blocks).rev() {
            dh = block.backward(&dh, bt, grads, g);
        }
        if let Some(ln) = &self.emb_ln {
            let cache = tape.emb_ln.as_ref().expect("embedding LN tape");
            dh = ln.backward(&dh, cache, grads, g);
        }
        self.embedding.backward(&dh, &tape.tokens, grads);
    }
}

impl HasParams for TransformerModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params(f);
        if let Some(ln) = &mut self.emb_ln {
            ln.visit_params(f);
        }
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        if let Some(ln) = &mut self.final_ln {
            ln.visit_params(f);
        }
        if let Some(p) = &mut self.pooler {
            p.visit_params(f);
        }
        self.classifier.visit_params(f);
    }
}

/// Softmax cross-entropy for a `1 × C` logits row; returns
/// `(loss, dlogits)`.
///
/// Under an active `g` the probability row is screened (entries in
/// `[0, 1]`, row sums to ~1) and healed by exact recompute from the
/// preserved logits on violation; [`OpGuard::off`] is the unguarded loss.
/// NaN/INF logits produce a NaN loss either way — the non-trainable-state
/// signal of the paper's study: propagation recomputes identically and is
/// not a fault.
pub fn cross_entropy(logits: &Matrix, label: usize, g: &OpGuard) -> (f32, Matrix) {
    assert_eq!(logits.rows(), 1);
    assert!(label < logits.cols());
    let p = softmax_rows_checked(logits, g);
    let loss = -(p[(0, label)].max(f32::MIN_POSITIVE)).ln();
    // If the row went NaN, surface NaN instead of the clamped value.
    let loss = if p.row(0).iter().any(|x| x.is_nan()) {
        f32::NAN
    } else {
        loss
    };
    let mut d = p;
    d[(0, label)] -= 1.0;
    (loss, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(config: ModelConfig) -> (TransformerModel, TensorRng) {
        let mut rng = TensorRng::seed_from(11);
        let m = TransformerModel::new(config, ProtectionConfig::off(), &mut rng);
        (m, rng)
    }

    #[test]
    fn forward_shapes_all_archs() {
        for cfg in ModelConfig::paper_six() {
            let (m, _) = tiny(cfg.clone());
            let tokens: Vec<usize> = (0..16).map(|i| i % cfg.vocab).collect();
            let mut report = AbftReport::default();
            let (logits, _) = m.forward(&tokens, SectionToggles::none(), None, &mut report);
            assert_eq!((logits.rows(), logits.cols()), (1, 2), "{}", cfg.name);
            assert!(logits.all_finite(), "{}", cfg.name);
        }
    }

    #[test]
    fn cross_entropy_math() {
        let logits = Matrix::from_vec(1, 2, vec![2.0, 0.0]);
        let (loss, d) = cross_entropy(&logits, 0, &OpGuard::off());
        let p0 = (2.0f32).exp() / ((2.0f32).exp() + 1.0);
        assert!((loss + p0.ln()).abs() < 1e-5);
        assert!((d[(0, 0)] - (p0 - 1.0)).abs() < 1e-5);
        assert!((d[(0, 1)] - (1.0 - p0)).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_nan_logits_flag_non_trainable() {
        let logits = Matrix::from_vec(1, 2, vec![f32::NAN, 0.0]);
        let (loss, _) = cross_entropy(&logits, 0, &OpGuard::off());
        assert!(loss.is_nan());
    }

    /// Finite-difference check of the whole model's backward on `cfg` at
    /// width 16, at parameters spread across its depth.
    fn full_model_gradient_check(mut cfg: ModelConfig, spots: &[&str]) {
        cfg.hidden = 16;
        cfg.heads = 2;
        let (m, _) = tiny(cfg);
        let tokens = vec![1usize, 5, 9, 3];
        let label = 1usize;
        let mut report = AbftReport::default();
        let (logits, tape) = m.forward(&tokens, SectionToggles::none(), None, &mut report);
        let (_, dlogits) = cross_entropy(&logits, label, &OpGuard::off());
        let mut grads = Grads::new();
        m.backward(&dlogits, &tape, &mut grads, &OpGuard::off());

        let loss_fn = |mm: &TransformerModel| -> f32 {
            let mut r = AbftReport::default();
            let (lg, _) = mm.forward(&tokens, SectionToggles::none(), None, &mut r);
            cross_entropy(&lg, label, &OpGuard::off()).0
        };
        let eps = 1e-2;
        for &name in spots {
            let grad = grads
                .get(name)
                .unwrap_or_else(|| panic!("param {name} not found"));
            let pos = (grad.rows() / 2, grad.cols() / 2);
            let analytic = grad[pos];
            let mut mp = m.clone();
            mp.visit_params(&mut |p| {
                if p.name == name {
                    p.value[pos] += eps;
                }
            });
            let mut mm = m.clone();
            mm.visit_params(&mut |p| {
                if p.name == name {
                    p.value[pos] -= eps;
                }
            });
            let fd = (loss_fn(&mp) - loss_fn(&mm)) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 5e-2,
                "{name}: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn full_model_gradient_check_bert() {
        let cfg = ModelConfig {
            layers: 1,
            ..ModelConfig::bert_small()
        };
        full_model_gradient_check(cfg, &["classifier.w", "block0.attn.wq", "pooler.w"]);
    }

    #[test]
    fn full_model_gradient_check_causal() {
        // The final LN runs on the last row only; everything below it is
        // checked through its backward. Two blocks with a 2-key window, so
        // GPT-Neo's local block is covered too.
        let spots = [
            "classifier.w",
            "final.ln.gamma",
            "block1.attn.wq",
            "block1.ffn.lin1.w",
            "block0.attn.wk",
            "block0.ln1.gamma",
        ];
        for base in [ModelConfig::gpt2(), ModelConfig::gpt_neo()] {
            let cfg = ModelConfig {
                layers: 2,
                local_window: 2,
                ..base
            };
            full_model_gradient_check(cfg, &spots);
        }
    }

    #[test]
    fn gpt_neo_alternates_masks() {
        let (m, _) = tiny(ModelConfig::gpt_neo());
        let m0 = m.causal_mask_rows(0, 0..16, 16);
        let m1 = m.causal_mask_rows(1, 0..16, 16);
        assert_ne!(m0.data(), m1.data());
        // Layer 1 is local: position 15 cannot attend to position 0.
        assert!(m1[(15, 0)] < -1e8);
        assert_eq!(m0[(15, 0)], 0.0);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn each_block_of_a_pass_applies_its_own_mask() {
        // Global, local, global blocks under a window shorter than the
        // sequence: one pass must match a block-by-block run in which
        // block `i` gets `causal_mask_rows(i, …)`.
        let mut rng = TensorRng::seed_from(14);
        let cfg = ModelConfig {
            hidden: 16,
            heads: 2,
            layers: 3,
            local_window: 3,
            ..ModelConfig::gpt_neo()
        };
        let m = TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng);
        let tokens: Vec<usize> = (0..8).collect();
        let n = tokens.len();
        let mut report = AbftReport::default();
        let (logits, _) = m.forward(&tokens, SectionToggles::all(), None, &mut report);

        // Fault-free, a guarded op has its plain op's bits, so the
        // reference runs the embedding and final LN unguarded.
        let block_by_block = |mask_layer: fn(usize) -> usize| {
            let mut r = AbftReport::default();
            let mut h = m.embedding.forward(&tokens, 0, &OpGuard::off());
            for (i, block) in m.blocks.iter().enumerate() {
                let mask = m.causal_mask_rows(mask_layer(i), 0..n, n);
                let mut ctx = Ctx::new(m.protection(), SectionToggles::all(), &mut r);
                ctx.mask = Some(&mask);
                h = block.forward(&h, &mut m.new_kv_cache(), &mut ctx).0;
            }
            let last = Matrix::from_vec(1, h.cols(), h.row(n - 1).to_vec());
            let ln = m.final_ln.as_ref().expect("GPT-Neo has a final LN");
            m.classifier.forward(&ln.forward(&last, &OpGuard::off()).0)
        };
        assert_eq!(bits(&logits), bits(&block_by_block(|i| i)));
        // The window binds: every block under the global mask differs.
        assert_ne!(bits(&logits), bits(&block_by_block(|_| 0)));
    }

    #[test]
    fn the_injection_hook_reaches_only_its_own_block() {
        let mut cfg = ModelConfig::gpt2();
        cfg.layers = 2;
        let (m, _) = tiny(cfg);
        let tokens: Vec<usize> = (0..8).collect();
        let logits = |layer: Option<usize>| {
            let spec = layer.map(|layer| InjectionSpec {
                layer,
                op: AttnOp::Q,
                head: 0,
                row: 7, // the last token, which the head reads
                col: 5,
                kind: FaultKind::Inf,
            });
            let mut report = AbftReport::default();
            let toggles = SectionToggles::none();
            bits(&m.forward(&tokens, toggles, spec.as_ref(), &mut report).0)
        };
        let clean = logits(None);
        assert_ne!(logits(Some(1)), clean, "a strike at the last block is lost");
        assert_eq!(logits(Some(2)), clean, "no block 2: nothing may fire");
    }

    #[test]
    fn injection_spec_reaches_forward() {
        let (m, _) = tiny(ModelConfig::bert_base());
        let tokens: Vec<usize> = (0..16).collect();
        let spec = InjectionSpec {
            layer: 0,
            op: AttnOp::Q,
            head: 0,
            row: 3,
            col: 5,
            kind: FaultKind::NaN,
        };
        let mut report = AbftReport::default();
        let (logits, _) = m.forward(&tokens, SectionToggles::none(), Some(&spec), &mut report);
        // Unprotected NaN in Q propagates through two layers into the CLS
        // path and the logits.
        assert!(!logits.all_finite());
    }

    #[test]
    fn injection_with_protection_is_corrected() {
        let mut rng = TensorRng::seed_from(12);
        let m = TransformerModel::new(ModelConfig::bert_base(), ProtectionConfig::full(), &mut rng);
        let tokens: Vec<usize> = (0..16).collect();
        let spec = InjectionSpec {
            layer: 1,
            op: AttnOp::AS,
            head: 1,
            row: 2,
            col: 7,
            kind: FaultKind::Inf,
        };
        let mut report = AbftReport::default();
        let (logits, _) = m.forward(&tokens, SectionToggles::all(), Some(&spec), &mut report);
        assert!(logits.all_finite());
        assert!(report.correction_count() > 0);
        assert_eq!(report.unrecovered, 0);
    }

    #[test]
    fn ffn_injection_with_protection_is_corrected() {
        let mut rng = TensorRng::seed_from(13);
        let m = TransformerModel::new(ModelConfig::bert_base(), ProtectionConfig::full(), &mut rng);
        let tokens: Vec<usize> = (0..16).collect();
        for op in AttnOp::FFN {
            let spec = InjectionSpec {
                layer: 0,
                op,
                head: 0,
                row: 5,
                col: 9,
                kind: FaultKind::NaN,
            };
            let mut report = AbftReport::default();
            let (logits, _) = m.forward(&tokens, SectionToggles::all(), Some(&spec), &mut report);
            assert!(logits.all_finite(), "{op:?}");
            assert!(report.correction_count() > 0, "{op:?}");
            assert_eq!(report.unrecovered, 0, "{op:?}");
        }
    }

    #[test]
    fn roberta_uses_position_offset() {
        let (m, _) = tiny(ModelConfig::roberta());
        assert_eq!(m.embedding.pos_offset, 2);
        let (mb, _) = tiny(ModelConfig::bert_base());
        assert_eq!(mb.embedding.pos_offset, 0);
    }
}
