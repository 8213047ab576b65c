//! The decoding engine: session lifecycle, batching, protection pacing.

use crate::sampling::{sample_token, Sampling};
use crate::session::DecodeSession;
use attn_model::model::{InjectionSpec, TransformerModel};
use attn_tensor::par;
use attn_tensor::rng::TensorRng;
use attnchecker::attention::SectionToggles;
use attnchecker::config::ProtectionConfig;
use attnchecker::policy::ProtectionPolicy;
use attnchecker::report::AbftReport;
use attnchecker::section::GuardedSection;

/// ABFT-protected autoregressive decoding engine.
///
/// Owns the model and the [`ProtectionPolicy`] whose frequency gates pace
/// section checks across decode steps (one toggle set per engine step,
/// shared by every session in a batch — the serving image of the trainer's
/// per-step gating). Sessions are isolated: each carries its own KV
/// caches, sampling RNG, and report, so a batch step fans them over
/// [`attn_tensor::par::map`] and reads results back in input order —
/// generated tokens, logits, and reports are bit-identical at any worker
/// count.
///
/// Prefills (session admission) draw their toggles from a **separate**
/// gate stream (`prefill_policy`): admitting a session between batch steps
/// must not consume a draw from the decode stream, or every live session's
/// toggle schedule would shift with admission timing.
pub struct DecodeEngine {
    model: TransformerModel,
    policy: ProtectionPolicy,
    prefill_policy: ProtectionPolicy,
    parallelism: usize,
    next_id: u64,
}

/// What one mixed batch step does to a session: generate a fresh token, or
/// feed a known one (chunked prefill under continuous batching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Sample from the armed logits, then decode the sampled token.
    Gen,
    /// Decode this known token without sampling; it is accounted as prompt
    /// (`prompt_len` advances), so `generated()` stays sample-only.
    Feed(usize),
}

impl DecodeEngine {
    /// Wrap a causal model for serving.
    ///
    /// # Panics
    /// Panics when the architecture cannot decode, or when
    /// `num_classes != vocab` — generation feeds sampled ids back as
    /// inputs, so the classifier head must span the vocabulary.
    pub fn new(model: TransformerModel) -> Self {
        assert!(
            model.supports_decode(),
            "DecodeEngine requires a causal architecture (GPT-2 / GPT-Neo)"
        );
        assert_eq!(
            model.config.num_classes, model.config.vocab,
            "DecodeEngine requires an LM-shaped head (num_classes == vocab)"
        );
        Self {
            model,
            policy: ProtectionPolicy::default(),
            prefill_policy: ProtectionPolicy::default(),
            parallelism: 1,
            next_id: 0,
        }
    }

    /// The served model.
    pub fn model(&self) -> &TransformerModel {
        &self.model
    }

    /// Fan batch steps over `workers` threads (clamped to ≥ 1). Purely a
    /// throughput knob: per-session isolation plus fixed-order reduction
    /// keep every result bit-identical at any setting.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
    }

    /// Worker threads batch steps fan out over.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Change the model's protection config, which both gate streams read
    /// on every draw. Affects new sessions and future steps; an existing
    /// session keeps the cache layout (checksummed or not) it was opened
    /// with.
    pub fn set_protection(&mut self, protection: ProtectionConfig) {
        self.model.set_protection(protection);
    }

    /// Open a session: [`TransformerModel::extend`] a fresh state by the
    /// whole `prompt` — its K/V rows verified onto the caches as they are
    /// appended — and arm the next-token logits. `seed` initialises the
    /// session's private sampling RNG.
    ///
    /// Draws toggles from the prefill gate stream, never the decode
    /// stream: sessions admitted mid-serving leave every live session's
    /// toggle schedule bit-identical.
    ///
    /// # Panics
    /// Panics on an empty prompt or out-of-vocabulary ids.
    pub fn open_session(&mut self, prompt: &[usize], seed: u64) -> DecodeSession {
        let toggles = self.prefill_policy.next_toggles(self.model.protection());
        let mut report = AbftReport::default();
        let mut state = self.model.new_decode_state();
        let logits = self
            .model
            .extend(prompt, &mut state, toggles, None, &mut report);
        let id = self.next_id;
        self.next_id += 1;
        DecodeSession {
            id,
            tokens: prompt.to_vec(),
            prompt_len: prompt.len(),
            report,
            state,
            logits,
            rng: TensorRng::seed_from(seed),
        }
    }

    /// Advance one session by one token: sample from the armed logits,
    /// decode the sampled token through the protected KV-cached step, and
    /// re-arm. Returns the sampled token.
    pub fn step(&mut self, session: &mut DecodeSession, sampling: Sampling) -> usize {
        self.step_injected(session, sampling, None)
    }

    /// [`Self::step`] with an optional fault injection into one decode-time
    /// GEMM — the serving image of `Trainer::train_step_injected`.
    pub fn step_injected(
        &mut self,
        session: &mut DecodeSession,
        sampling: Sampling,
        inject: Option<&InjectionSpec>,
    ) -> usize {
        let toggles = self.policy.next_toggles(self.model.protection());
        step_session(&self.model, session, StepOp::Gen, toggles, sampling, inject)
    }

    /// Advance every session by one token, fanned over the engine's workers.
    /// One toggle set is drawn for the whole batch step; results are read
    /// back in input order, so the outcome is bit-identical to stepping
    /// the sessions sequentially. Returns the sampled token per session,
    /// in order.
    ///
    /// Sessions are stepped **in place** — they are never moved out of the
    /// caller's slice, so even if one session panics (e.g. its position
    /// table is exhausted; see [`Self::capacity_left`]) the others remain
    /// owned by the caller and can continue.
    pub fn step_batch(&mut self, sessions: &mut [DecodeSession], sampling: Sampling) -> Vec<usize> {
        let mut items: Vec<(&mut DecodeSession, StepOp)> =
            sessions.iter_mut().map(|s| (s, StepOp::Gen)).collect();
        self.step_batch_mixed(&mut items, sampling)
    }

    /// One iteration-level engine step over a mixed batch: each session
    /// either generates ([`StepOp::Gen`]) or is fed a known prompt token
    /// ([`StepOp::Feed`], chunked prefill). One toggle set is drawn for
    /// the whole step — prefill chunks and decode steps share the same
    /// protected engine step, the continuous-batching contract — and
    /// results are read back in input order, so the outcome is
    /// bit-identical to stepping the sessions sequentially at any worker
    /// count. Returns the token consumed per session, in order (for `Gen`
    /// the sample; for `Feed` the fed token).
    pub fn step_batch_mixed(
        &mut self,
        items: &mut [(&mut DecodeSession, StepOp)],
        sampling: Sampling,
    ) -> Vec<usize> {
        if items.is_empty() {
            return Vec::new();
        }
        let toggles = self.policy.next_toggles(self.model.protection());
        let model = &self.model;
        par::map(self.parallelism, items, |_, (s, op)| {
            step_session(model, s, *op, toggles, sampling, None)
        })
    }

    /// Park a session: its KV blocks are checksum-verified where they lie
    /// ([`attnchecker::AttnKvCache::verify`]) and the session is
    /// descheduled; [`Self::unpark_session`] verifies again before it
    /// rejoins the schedule — the verify-on-move contract. A parked
    /// session cannot step until unparked.
    pub fn park_session(&self, session: &mut DecodeSession) {
        self.model
            .park_state(&mut session.state, &mut session.report);
    }

    /// Restore a parked session to live, decodable state; fault-free
    /// round trips are bit-identical. See [`Self::park_session`].
    pub fn unpark_session(&self, session: &mut DecodeSession) {
        self.model
            .unpark_state(&mut session.state, &mut session.report);
    }

    /// How many more tokens `session` can decode before the model's
    /// position table is exhausted (decoding past it panics). Callers
    /// batching sessions of unequal length can drain a session from the
    /// batch when this reaches 0. Saturating throughout (see
    /// [`TransformerModel::position_capacity`]): a session already past
    /// the table reports 0 rather than wrapping.
    pub fn capacity_left(&self, session: &DecodeSession) -> usize {
        self.model
            .position_capacity()
            .saturating_sub(session.position())
    }

    /// Generate `n` tokens on one session; returns them in order.
    pub fn generate(
        &mut self,
        session: &mut DecodeSession,
        n: usize,
        sampling: Sampling,
    ) -> Vec<usize> {
        (0..n).map(|_| self.step(session, sampling)).collect()
    }
}

/// One session's share of an engine step, under the step's `toggles`: a
/// [`StepOp::Gen`] samples from the armed logits under its own op guard, a
/// [`StepOp::Feed`] accounts its known token as prompt; either way the
/// token is appended and decoded (with the optional `inject`) to re-arm
/// the logits. Returns the token consumed.
fn step_session(
    model: &TransformerModel,
    s: &mut DecodeSession,
    op: StepOp,
    toggles: SectionToggles,
    sampling: Sampling,
    inject: Option<&InjectionSpec>,
) -> usize {
    let token = match op {
        StepOp::Gen => {
            let op_guard = GuardedSection::guard_step(model.protection());
            let t = sample_token(&s.logits, sampling, &mut s.rng, &op_guard);
            s.report.absorb_op_guard(op_guard.take_stats());
            t
        }
        StepOp::Feed(t) => {
            s.prompt_len += 1;
            t
        }
    };
    s.tokens.push(token);
    s.logits = model.extend(&[token], &mut s.state, toggles, inject, &mut s.report);
    token
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // step index addresses parallel reference structures
mod tests {
    use super::*;
    use attn_fault::{run_campaign, CampaignStats, FaultKind};
    use attn_model::model::ModelConfig;
    use attn_tensor::Matrix;
    use attnchecker::attention::{AttnOp, SectionToggles};

    fn lm_model(protection: ProtectionConfig) -> TransformerModel {
        let mut rng = TensorRng::seed_from(17);
        let mut cfg = ModelConfig::gpt2();
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 2;
        cfg.vocab = 48;
        cfg.num_classes = 48; // LM-shaped head
        cfg.max_seq = 32;
        TransformerModel::new(cfg, protection, &mut rng)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn greedy_generation_matches_full_forward_recompute() {
        // Engine-level parity: each armed logits row must equal the full
        // protected forward over the session's whole token history.
        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let prompt = [3usize, 11, 7, 29];
        let mut session = engine.open_session(&prompt, 1);
        for _ in 0..8 {
            let _ = engine.step(&mut session, Sampling::Greedy);
            let mut r = AbftReport::default();
            let (full, _) =
                engine
                    .model()
                    .forward(&session.tokens, SectionToggles::none(), None, &mut r);
            assert_eq!(
                bits(session.logits()),
                bits(&full),
                "tokens={:?}",
                session.tokens
            );
        }
        assert_eq!(session.generated().len(), 8);
        assert!(session.report.is_quiet());
    }

    #[test]
    fn batched_decode_is_bit_identical_at_any_worker_count() {
        let prompts: [&[usize]; 4] = [&[1, 2, 3], &[40, 4], &[9, 9, 9, 9, 9], &[17]];
        let run = |workers: usize| {
            let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
            engine.set_parallelism(workers);
            let mut sessions: Vec<DecodeSession> = prompts
                .iter()
                .enumerate()
                .map(|(i, p)| engine.open_session(p, 100 + i as u64))
                .collect();
            let mut all_tokens = Vec::new();
            for _ in 0..6 {
                all_tokens.push(engine.step_batch(&mut sessions, Sampling::Temperature(0.9)));
            }
            let logits: Vec<Vec<u32>> = sessions.iter().map(|s| bits(s.logits())).collect();
            let reports: Vec<_> = sessions.iter().map(|s| s.report.clone()).collect();
            (all_tokens, logits, reports)
        };
        let base = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(run(workers), base, "workers={workers} diverged");
        }
    }

    #[test]
    fn single_session_batch_runs_inline_and_matches_sequential() {
        // A one-item batch runs on the calling thread at any worker count;
        // it must be bit-identical to the same step at workers=1.
        let run = |workers: usize| {
            let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
            engine.set_parallelism(workers);
            let mut s = engine.open_session(&[5, 6, 7], 42);
            let toks: Vec<usize> = (0..6)
                .map(|_| engine.step_batch(std::slice::from_mut(&mut s), Sampling::Greedy)[0])
                .collect();
            (toks, bits(s.logits()))
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn zero_workers_clamps_to_sequential_stepping() {
        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        engine.set_parallelism(0);
        assert_eq!(engine.parallelism(), 1);
        let mut sessions: Vec<DecodeSession> = (0..3)
            .map(|i| engine.open_session(&[i + 1, i + 2], i as u64))
            .collect();
        let toks = engine.step_batch(&mut sessions, Sampling::Greedy);
        assert_eq!(toks.len(), 3);
        for (s, &t) in sessions.iter().zip(&toks) {
            assert_eq!(*s.tokens.last().unwrap(), t);
        }
    }

    #[test]
    fn zero_layer_model_serves_under_its_own_protection() {
        // No block to borrow a config from: construction must not index
        // one, and the model-level guards must still run.
        let mut rng = TensorRng::seed_from(18);
        let mut cfg = ModelConfig::gpt2();
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 0;
        cfg.vocab = 48;
        cfg.num_classes = 48;
        let model = TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng);
        let mut engine = DecodeEngine::new(model);
        let mut s = engine.open_session(&[3, 11], 1);
        let _ = engine.step(&mut s, Sampling::Greedy);
        assert!(s.report.op_checks > 0, "guards ran off on a full() model");
    }

    #[test]
    fn sessions_keep_their_order_and_ids_across_batched_steps() {
        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        engine.set_parallelism(3);
        let mut sessions: Vec<DecodeSession> = (0..5)
            .map(|i| engine.open_session(&[i + 1], i as u64))
            .collect();
        let ids: Vec<u64> = sessions.iter().map(|s| s.id).collect();
        let toks = engine.step_batch(&mut sessions, Sampling::Greedy);
        assert_eq!(toks.len(), 5);
        assert_eq!(ids, sessions.iter().map(|s| s.id).collect::<Vec<_>>());
        for (s, &t) in sessions.iter().zip(&toks) {
            assert_eq!(*s.tokens.last().unwrap(), t);
        }
    }

    #[test]
    fn protected_and_unprotected_sessions_agree_when_fault_free() {
        let mut on = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let mut off = DecodeEngine::new(lm_model(ProtectionConfig::off()));
        let prompt = [5usize, 23, 2];
        let mut sa = on.open_session(&prompt, 9);
        let mut sb = off.open_session(&prompt, 9);
        let ta = on.generate(&mut sa, 6, Sampling::Greedy);
        let tb = off.generate(&mut sb, 6, Sampling::Greedy);
        assert_eq!(ta, tb, "protection must not change fault-free decoding");
        assert_eq!(bits(sa.logits()), bits(sb.logits()));
    }

    #[test]
    fn injection_campaign_over_decode_steps_is_fully_corrected() {
        // The Table-4-style campaign, pointed at serving: random extreme
        // faults in random decode-time GEMMs, every one detected and
        // exactly corrected (logits match the fault-free run bit for bit).
        let model = lm_model(ProtectionConfig::full());
        let prompt = [7usize, 31, 13, 2];
        let steps = 5usize;

        // Fault-free reference logits per step.
        let reference: Vec<Vec<u32>> = {
            let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
            let mut s = engine.open_session(&prompt, 42);
            (0..steps)
                .map(|_| {
                    let _ = engine.step(&mut s, Sampling::Greedy);
                    bits(s.logits())
                })
                .collect()
        };

        const SITES: [AttnOp; 8] = [
            AttnOp::Q,
            AttnOp::K,
            AttnOp::V,
            AttnOp::AS,
            AttnOp::CL,
            AttnOp::O,
            AttnOp::Ffn1,
            AttnOp::Ffn2,
        ];
        const KINDS: [FaultKind; 4] = [
            FaultKind::Inf,
            FaultKind::NegInf,
            FaultKind::NaN,
            FaultKind::NearInf,
        ];
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let outcomes = run_campaign(workers, 2024, 48, |_, rng| {
            let spec = InjectionSpec {
                layer: rng.index(model.config.layers),
                op: SITES[rng.index(SITES.len())],
                head: rng.index(model.config.heads),
                row: rng.index(8),
                col: rng.index(64),
                kind: KINDS[rng.index(KINDS.len())],
            };
            let strike = rng.index(steps);
            let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
            let mut s = engine.open_session(&prompt, 42);
            let mut ok = true;
            for step in 0..steps {
                let inject = (step == strike).then_some(&spec);
                let _ = engine.step_injected(&mut s, Sampling::Greedy, inject);
                ok &= bits(s.logits()) == reference[step];
            }
            ok && s.report.unrecovered == 0 && s.report.correction_count() > 0
        });
        let stats = CampaignStats::from_outcomes(&outcomes);
        assert_eq!(
            stats.successes,
            stats.trials,
            "decode campaign not fully corrected: {}",
            stats.percent()
        );
    }

    #[test]
    fn unprotected_injection_poisons_generation() {
        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::off()));
        let mut s = engine.open_session(&[1usize, 2, 3], 0);
        let spec = InjectionSpec {
            layer: 0,
            op: AttnOp::AS,
            head: 0,
            row: 0,
            col: 1,
            kind: FaultKind::NaN,
        };
        let _ = engine.step_injected(&mut s, Sampling::Greedy, Some(&spec));
        assert!(
            !s.logits().all_finite(),
            "unprotected NaN must reach the logits"
        );
    }

    #[test]
    fn mid_stream_admission_leaves_toggle_schedules_untouched() {
        // Regression: open_session used to draw its toggles from the same
        // gate stream as decode steps, so admitting a session mid-serving
        // shifted every live session's toggle schedule. With fractional
        // frequencies the shift shows up as different checked/skipped
        // section counts.
        let mut p = ProtectionConfig::full();
        p.f_as = 0.5;
        p.f_cl = 0.5;
        p.f_o = 0.5;
        p.f_ffn = 0.5;
        let run = |admit_mid: bool| {
            let mut engine = DecodeEngine::new(lm_model(p));
            let mut s1 = engine.open_session(&[3, 1, 4], 7);
            let mut admitted = None;
            for i in 0..6 {
                if admit_mid && i == 3 {
                    admitted = Some(engine.open_session(&[9, 9], 8));
                }
                let _ = engine.step(&mut s1, Sampling::Greedy);
            }
            drop(admitted);
            (
                s1.report.sections_checked,
                s1.report.sections_skipped,
                s1.tokens.clone(),
                bits(s1.logits()),
            )
        };
        assert_eq!(
            run(false),
            run(true),
            "admission must not consume decode-stream toggle draws"
        );
    }

    #[test]
    fn capacity_left_saturates_when_pos_offset_exceeds_table() {
        // Regression: `table rows - pos_offset` was an unchecked usize
        // subtraction, so a position table smaller than the offset (e.g. a
        // mis-sliced checkpoint) panicked in debug and wrapped to ~usize::MAX
        // capacity in release.
        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let session = engine.open_session(&[1, 2], 0);
        let mut sliced = lm_model(ProtectionConfig::full());
        sliced.embedding.pos_offset = sliced.embedding.pos.value.rows() + 7;
        let short = DecodeEngine::new(sliced);
        assert_eq!(short.capacity_left(&session), 0);
    }

    #[test]
    fn chunked_prefill_feed_matches_whole_prompt_prefill() {
        let prompt = [3usize, 11, 7, 29, 5, 2];
        let mut whole = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let mut full = whole.open_session(&prompt, 5);
        let mut chunky = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let mut fed = chunky.open_session(&prompt[..2], 5);
        for &t in &prompt[2..] {
            let mut items = [(&mut fed, StepOp::Feed(t))];
            let toks = chunky.step_batch_mixed(&mut items, Sampling::Greedy);
            assert_eq!(toks, [t]);
        }
        assert_eq!(fed.tokens, full.tokens);
        assert_eq!(fed.prompt_len, full.prompt_len);
        assert_eq!(fed.generated(), full.generated());
        assert_eq!(bits(fed.logits()), bits(full.logits()));
        // Generation continues bit-identically from either prefill path.
        let a = whole.generate(&mut full, 4, Sampling::Temperature(0.8));
        let b = chunky.generate(&mut fed, 4, Sampling::Temperature(0.8));
        assert_eq!(a, b);
    }

    #[test]
    fn parked_session_resumes_bit_identically() {
        let mut straight = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let mut a = straight.open_session(&[4, 8, 15], 3);
        let ta = straight.generate(&mut a, 6, Sampling::Temperature(0.7));

        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        let mut b = engine.open_session(&[4, 8, 15], 3);
        let mut tb = engine.generate(&mut b, 3, Sampling::Temperature(0.7));
        engine.park_session(&mut b);
        assert!(b.is_parked());
        engine.unpark_session(&mut b);
        assert!(!b.is_parked());
        tb.extend(engine.generate(&mut b, 3, Sampling::Temperature(0.7)));

        assert_eq!(ta, tb, "park/unpark must not perturb generation");
        assert_eq!(bits(a.logits()), bits(b.logits()));
        assert_eq!(b.report.detections, 0, "fault-free round trip is quiet");
    }

    #[test]
    #[should_panic]
    fn classifier_head_is_rejected() {
        // num_classes != vocab cannot feed sampled ids back as inputs.
        let mut rng = TensorRng::seed_from(1);
        let cfg = ModelConfig::gpt2(); // num_classes = 2
        let model = TransformerModel::new(cfg, ProtectionConfig::off(), &mut rng);
        let _ = DecodeEngine::new(model);
    }
}
