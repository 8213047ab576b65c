//! The continuous-batching gateway: admission, scheduling, eviction.

use crate::request::{
    AdmitError, Completion, FinishReason, Request, RequestId, TraceEvent, TraceOutcome,
};
use attn_infer::{DecodeEngine, DecodeSession, Sampling, StepOp};
use attn_model::model::TransformerModel;
use attnchecker::report::AbftReport;
use std::collections::VecDeque;

/// Gateway sizing and policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Admission queue bound; submissions beyond it are shed with
    /// [`AdmitError::QueueFull`].
    pub queue_depth: usize,
    /// Maximum concurrently admitted sessions (live, parked included).
    pub max_live: usize,
    /// Prompt tokens prefilled at admission; the rest of the prompt is
    /// fed one token per engine step ([`StepOp::Feed`]), interleaved with
    /// other sessions' decode steps — iteration-level continuous
    /// batching.
    pub prefill_chunk: usize,
    /// Bound on KV rows scheduled per engine step. Sessions beyond the
    /// budget — scanned in admission order — are parked (verified where
    /// they lie, then skipped by the step) and unparked (verified again)
    /// as earlier sessions drain. The oldest session always stays
    /// scheduled, so progress is guaranteed even when it alone exceeds
    /// the budget.
    pub kv_row_budget: usize,
    /// Maximum logical ticks a request may wait in the admission queue;
    /// older requests are shed with [`FinishReason::ExpiredInQueue`].
    /// `0` means "admit on the arrival tick or never".
    pub ttl_ticks: u64,
    /// Optional end-of-sequence token: generating it finishes the
    /// request.
    pub eos: Option<usize>,
    /// Sampling strategy for every session.
    pub sampling: Sampling,
    /// Engine worker threads. Purely a throughput knob: results are
    /// bit-identical at any setting.
    pub workers: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            max_live: 8,
            prefill_chunk: 4,
            kv_row_budget: usize::MAX,
            ttl_ticks: u64::MAX,
            eos: None,
            sampling: Sampling::Greedy,
            workers: 1,
        }
    }
}

/// Deterministic counters the gateway accumulates while serving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Protected engine steps executed (each mixes feeds and decodes).
    pub engine_steps: u64,
    /// Prompt tokens fed through [`StepOp::Feed`] (chunked prefill).
    pub fed_tokens: u64,
    /// Tokens generated by sampling.
    pub generated_tokens: u64,
    /// Sessions parked (verified and descheduled) by the KV-row budget.
    pub park_events: u64,
    /// Parked sessions verified again and rescheduled.
    pub unpark_events: u64,
    /// Requests shed from the queue by TTL.
    pub expired: u64,
    /// Largest KV row count scheduled in a single step.
    pub peak_hot_rows: usize,
    /// Non-GEMM op-guard detections (softmax/LayerNorm/GELU/residual/
    /// sampler screens) accumulated from completed requests' reports.
    pub op_detections: u64,
}

struct Queued {
    id: RequestId,
    req: Request,
    enqueued_at: u64,
}

struct Live {
    id: RequestId,
    session: DecodeSession,
    /// Prompt tokens not yet consumed (fed one per engine step).
    feed: Vec<usize>,
    fed: usize,
    max_new: usize,
    submitted_at: u64,
}

/// A continuous-batching serving gateway over [`DecodeEngine`].
///
/// Time is a **logical tick clock**: each [`Gateway::tick`] sheds expired
/// queue entries, drains finished sessions, admits from the bounded
/// queue, enforces the hot-KV budget by parking/unparking sessions
/// (verify-on-move), and then runs **one** protected engine step over the
/// hot sessions — prefill chunks and decode steps mixed in the same step.
///
/// **Determinism contract.** Given a fixed arrival trace, the generated
/// token stream of every request is bit-identical at any worker count and
/// any admission interleaving (queue depth, `max_live`, budget-induced
/// parking): sessions share nothing but the read-only model, admission
/// prefills draw from the engine's separate prefill gate stream, and
/// batch steps reduce in fixed order.
pub struct Gateway {
    engine: DecodeEngine,
    cfg: GatewayConfig,
    queue: VecDeque<Queued>,
    live: Vec<Live>,
    done: Vec<Completion>,
    stats: GatewayStats,
    now: u64,
    next_id: RequestId,
    /// This tick's step per live session, cleared and refilled each tick
    /// so the plan reuses one allocation.
    ops: Vec<Option<StepOp>>,
}

impl Gateway {
    /// Wrap `model` for serving under `cfg`.
    ///
    /// # Panics
    /// Panics when `cfg.queue_depth`, `cfg.max_live`, or
    /// `cfg.prefill_chunk` is zero, or when the model cannot decode (see
    /// [`DecodeEngine::new`]).
    pub fn new(model: TransformerModel, cfg: GatewayConfig) -> Self {
        assert!(cfg.queue_depth > 0, "Gateway: queue_depth must be positive");
        assert!(cfg.max_live > 0, "Gateway: max_live must be positive");
        assert!(
            cfg.prefill_chunk > 0,
            "Gateway: prefill_chunk must be positive"
        );
        let mut engine = DecodeEngine::new(model);
        engine.set_parallelism(cfg.workers);
        Self {
            engine,
            cfg,
            queue: VecDeque::new(),
            live: Vec::new(),
            done: Vec::new(),
            stats: GatewayStats::default(),
            now: 0,
            next_id: 0,
            ops: Vec::new(),
        }
    }

    /// The served engine.
    pub fn engine(&self) -> &DecodeEngine {
        &self.engine
    }

    /// The active configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Admitted, unfinished sessions (hot + parked).
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Position-table capacity of the served model (tokens per session).
    pub fn table_capacity(&self) -> usize {
        self.engine.model().position_capacity()
    }

    /// Submit a request. Validates the prompt and applies backpressure:
    /// a full queue sheds the request with a typed error instead of
    /// blocking or panicking. Admission itself happens inside
    /// [`Gateway::tick`], FIFO.
    pub fn submit(&mut self, req: Request) -> Result<RequestId, AdmitError> {
        if req.prompt.is_empty() {
            return Err(AdmitError::EmptyPrompt);
        }
        let capacity = self.table_capacity();
        if req.prompt.len() > capacity {
            return Err(AdmitError::PromptTooLong {
                prompt: req.prompt.len(),
                capacity,
            });
        }
        // The embedding table's own row count: the bound its lookup asserts.
        let vocab = self.engine.model().embedding.tok.value.rows();
        if let Some(&token) = req.prompt.iter().find(|&&t| t >= vocab) {
            return Err(AdmitError::TokenOutOfVocab { token, vocab });
        }
        if self.queue.len() >= self.cfg.queue_depth {
            return Err(AdmitError::QueueFull {
                depth: self.cfg.queue_depth,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Queued {
            id,
            req,
            enqueued_at: self.now,
        });
        Ok(id)
    }

    /// Advance the gateway by one logical tick: shed, drain, admit,
    /// budget, then one mixed protected engine step. Deterministic —
    /// ticks have no wall-clock input.
    pub fn tick(&mut self) {
        self.shed_expired();
        self.drain_finished();
        self.admit();
        self.enforce_kv_budget();
        self.step_hot();
        self.now += 1;
    }

    /// Completions accumulated since the last call, in finish order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.done)
    }

    /// Replay an arrival trace (sorted by `at_tick`) to completion:
    /// submits every event at its tick, ticking until the queue and all
    /// sessions drain. Returns every completion plus the arrivals shed at
    /// submission.
    pub fn run_trace(&mut self, trace: &[TraceEvent]) -> TraceOutcome {
        debug_assert!(
            trace.is_sorted_by_key(|e| e.at_tick),
            "trace must be sorted by at_tick"
        );
        let mut rejected = Vec::new();
        let mut next = 0usize;
        while next < trace.len() || !self.queue.is_empty() || !self.live.is_empty() {
            while let Some(ev) = trace.get(next) {
                if ev.at_tick > self.now {
                    break;
                }
                if let Err(e) = self.submit(ev.request.clone()) {
                    rejected.push((next, e));
                }
                next += 1;
            }
            self.tick();
        }
        TraceOutcome {
            completions: self.drain_completions(),
            rejected,
        }
    }

    fn shed_expired(&mut self) {
        // FIFO queue: waiting times decrease front-to-back, so expired
        // entries form a prefix.
        while self
            .queue
            .front()
            .is_some_and(|q| self.now.saturating_sub(q.enqueued_at) > self.cfg.ttl_ticks)
        {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            self.stats.expired += 1;
            let prompt_len = q.req.prompt.len();
            self.done.push(Completion {
                id: q.id,
                reason: FinishReason::ExpiredInQueue,
                tokens: q.req.prompt,
                prompt_len,
                submitted_at: q.enqueued_at,
                finished_at: self.now,
                report: AbftReport::default(),
            });
        }
    }

    fn drain_finished(&mut self) {
        let engine = &self.engine;
        let eos = self.cfg.eos;
        let now = self.now;
        let done = &mut self.done;
        let op_detections = &mut self.stats.op_detections;
        self.live.retain_mut(|l| {
            let reason = finish_reason(l, engine, eos);
            if let Some(reason) = reason {
                let report = std::mem::take(&mut l.session.report);
                *op_detections += report.op_detections as u64;
                done.push(Completion {
                    id: l.id,
                    reason,
                    tokens: std::mem::take(&mut l.session.tokens),
                    prompt_len: l.session.prompt_len,
                    submitted_at: l.submitted_at,
                    finished_at: now,
                    report,
                });
                false
            } else {
                true
            }
        });
    }

    fn admit(&mut self) {
        while self.live.len() < self.cfg.max_live {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            let chunk = self.cfg.prefill_chunk.min(q.req.prompt.len());
            #[expect(
                clippy::indexing_slicing,
                reason = "chunk = min(prefill_chunk, prompt.len()) is in range by construction"
            )]
            let session = self.engine.open_session(&q.req.prompt[..chunk], q.req.seed);
            self.live.push(Live {
                id: q.id,
                session,
                feed: q.req.prompt,
                fed: chunk,
                max_new: q.req.max_new,
                submitted_at: q.enqueued_at,
            });
        }
    }

    fn enforce_kv_budget(&mut self) {
        let budget = self.cfg.kv_row_budget;
        let mut hot_rows = 0usize;
        for (i, l) in self.live.iter_mut().enumerate() {
            let rows = l.session.position();
            if i == 0 || hot_rows.saturating_add(rows) <= budget {
                if l.session.is_parked() {
                    self.engine.unpark_session(&mut l.session);
                    self.stats.unpark_events += 1;
                }
                hot_rows = hot_rows.saturating_add(rows);
            } else if !l.session.is_parked() {
                self.engine.park_session(&mut l.session);
                self.stats.park_events += 1;
            }
        }
        self.stats.peak_hot_rows = self.stats.peak_hot_rows.max(hot_rows);
    }

    fn step_hot(&mut self) {
        let (engine, eos) = (&self.engine, self.cfg.eos);
        self.ops.clear();
        self.ops.extend(self.live.iter().map(|l| {
            // Only a session admitted this tick can already be finished
            // here (`max_new: 0`, prompt within the prefill chunk); it
            // takes no step and the next tick's drain returns it.
            if l.session.is_parked() || finish_reason(l, engine, eos).is_some() {
                None
            } else if let Some(&tok) = l.feed.get(l.fed) {
                Some(StepOp::Feed(tok))
            } else {
                Some(StepOp::Gen)
            }
        }));
        let mut items: Vec<(&mut DecodeSession, StepOp)> = self
            .live
            .iter_mut()
            .zip(&self.ops)
            .filter_map(|(l, op)| op.map(|o| (&mut l.session, o)))
            .collect();
        if items.is_empty() {
            return;
        }
        self.engine.step_batch_mixed(&mut items, self.cfg.sampling);
        self.stats.engine_steps += 1;
        for (l, op) in self.live.iter_mut().zip(&self.ops) {
            match op {
                Some(StepOp::Feed(_)) => {
                    l.fed += 1;
                    self.stats.fed_tokens += 1;
                }
                Some(StepOp::Gen) => self.stats.generated_tokens += 1,
                None => {}
            }
        }
    }
}

/// Why a live session is finished, or `None` while it should keep
/// stepping. Checked every tick by the drain and again by the plan (which
/// is what a session admitted in between sees first), so EOS is always
/// the last generated token, `max_new` is never exceeded and no session
/// steps past the position table.
fn finish_reason(l: &Live, engine: &DecodeEngine, eos: Option<usize>) -> Option<FinishReason> {
    if l.fed >= l.feed.len() {
        let generated = l.session.generated();
        if eos.is_some() && generated.last() == eos.as_ref() {
            return Some(FinishReason::Eos);
        }
        if generated.len() >= l.max_new {
            return Some(FinishReason::TokenBudget);
        }
    }
    if engine.capacity_left(&l.session) == 0 {
        return Some(FinishReason::CapacityExhausted);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_model::model::ModelConfig;
    use attn_tensor::rng::TensorRng;
    use attnchecker::config::ProtectionConfig;
    use std::collections::BTreeMap;

    fn lm_model() -> TransformerModel {
        let mut rng = TensorRng::seed_from(17);
        let mut cfg = ModelConfig::gpt2();
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 2;
        cfg.vocab = 48;
        cfg.num_classes = 48;
        cfg.max_seq = 32;
        TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng)
    }

    fn req(prompt: &[usize], max_new: usize, seed: u64) -> Request {
        Request {
            prompt: prompt.to_vec(),
            max_new,
            seed,
        }
    }

    fn mixed_trace() -> Vec<TraceEvent> {
        // Prompts longer than prefill_chunk (forces Feed interleaving),
        // staggered arrivals, distinct seeds.
        [
            (0, req(&[3, 11, 7, 29, 5], 6, 1)),
            (0, req(&[40, 4, 9, 13, 2, 8, 21], 5, 2)),
            (1, req(&[17, 1, 2, 3, 4, 5], 6, 3)),
            (3, req(&[9, 9, 9, 9, 9, 9, 9, 9], 4, 4)),
            (4, req(&[5, 23, 2, 30, 31], 7, 5)),
            (8, req(&[1, 2, 3, 4], 6, 6)),
        ]
        .into_iter()
        .map(|(at_tick, request)| TraceEvent { at_tick, request })
        .collect()
    }

    fn by_id(out: &TraceOutcome) -> BTreeMap<RequestId, (Vec<usize>, FinishReason)> {
        out.completions
            .iter()
            .map(|c| (c.id, (c.tokens.clone(), c.reason)))
            .collect()
    }

    #[test]
    fn queue_backpressure_is_a_typed_reject() {
        let mut gw = Gateway::new(
            lm_model(),
            GatewayConfig {
                queue_depth: 2,
                ..GatewayConfig::default()
            },
        );
        assert!(gw.submit(req(&[1, 2], 4, 0)).is_ok());
        assert!(gw.submit(req(&[3], 4, 1)).is_ok());
        assert_eq!(
            gw.submit(req(&[4], 4, 2)),
            Err(AdmitError::QueueFull { depth: 2 })
        );
        assert_eq!(gw.submit(req(&[], 4, 3)), Err(AdmitError::EmptyPrompt));
        assert_eq!(
            gw.submit(req(&[1, 48, 3], 4, 5)),
            Err(AdmitError::TokenOutOfVocab {
                token: 48,
                vocab: 48,
            })
        );
        let too_long = vec![1usize; gw.table_capacity() + 1];
        assert_eq!(
            gw.submit(req(&too_long, 1, 4)),
            Err(AdmitError::PromptTooLong {
                prompt: too_long.len(),
                capacity: gw.table_capacity(),
            })
        );
    }

    #[test]
    fn fixed_trace_is_bit_identical_at_any_worker_count() {
        let cfg = GatewayConfig {
            queue_depth: 8,
            max_live: 3,
            prefill_chunk: 2,
            kv_row_budget: 24, // tight: forces park/unpark mid-trace
            sampling: Sampling::Temperature(0.9),
            ..GatewayConfig::default()
        };
        let run = |workers: usize| {
            let mut gw = Gateway::new(lm_model(), GatewayConfig { workers, ..cfg });
            let out = gw.run_trace(&mixed_trace());
            (out, *gw.stats())
        };
        let (base, stats) = run(1);
        assert_eq!(base.completions.len(), 6);
        assert!(base.rejected.is_empty());
        assert!(
            stats.park_events > 0 && stats.unpark_events > 0,
            "budget must exercise verified parking: {stats:?}"
        );
        assert!(stats.fed_tokens > 0, "chunked prefill must be exercised");
        assert!(
            base.completions.iter().all(|c| c.report.is_quiet()),
            "fault-free serving must stay quiet"
        );
        for workers in [2, 4] {
            assert_eq!(run(workers), (base.clone(), stats), "workers={workers}");
        }
    }

    #[test]
    fn multi_worker_serving_keeps_the_gateway_arena_bounded() {
        // At workers 2 a mixed batch steps its sessions on worker threads,
        // so the KV blocks a session grows past its first 16 rows come
        // from those threads' arenas, while the retired session is dropped
        // on the gateway thread. Serving the same load again and again
        // must not grow what that thread pools.
        let mut rng = TensorRng::seed_from(17);
        let mut cfg = ModelConfig::gpt2();
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 2;
        cfg.vocab = 48;
        cfg.num_classes = 48;
        cfg.max_seq = 64;
        let model = TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng);
        let mut gw = Gateway::new(
            model,
            GatewayConfig {
                max_live: 3,
                workers: 2,
                ..GatewayConfig::default()
            },
        );
        let trace: Vec<TraceEvent> = (0..3)
            .map(|i| TraceEvent {
                at_tick: 0,
                request: req(&[3 + i, 11, 7, 29], 40, i as u64),
            })
            .collect();
        let mut pooled_after_round = || {
            let out = gw.run_trace(&trace);
            assert_eq!(out.completions.len(), 3);
            attn_tensor::workspace::thread_pooled_buffers()
        };
        let warm = pooled_after_round();
        for round in 2..=6 {
            assert_eq!(
                pooled_after_round(),
                warm,
                "round {round}: the gateway thread's arena grew"
            );
        }
    }

    #[test]
    fn admission_interleaving_does_not_change_token_streams() {
        // Same trace under different concurrency/batching shapes: per-
        // request token streams and finish reasons are identical; only
        // scheduling (tick timings) may differ.
        let shapes = [
            (1usize, usize::MAX, 4usize),
            (3, usize::MAX, 2),
            (3, 20, 2), // budget parking on top
            (2, 26, 3),
        ];
        let mut outcomes = shapes
            .iter()
            .map(|&(max_live, kv_row_budget, prefill_chunk)| {
                let mut gw = Gateway::new(
                    lm_model(),
                    GatewayConfig {
                        max_live,
                        kv_row_budget,
                        prefill_chunk,
                        sampling: Sampling::Temperature(0.8),
                        ..GatewayConfig::default()
                    },
                );
                by_id(&gw.run_trace(&mixed_trace()))
            });
        let base = outcomes.next().unwrap();
        assert_eq!(base.len(), 6);
        for (streams, shape) in outcomes.zip(&shapes[1..]) {
            assert_eq!(streams, base, "shape {shape:?} perturbed a token stream");
        }
    }

    #[test]
    fn queue_ttl_sheds_starved_requests() {
        let mut gw = Gateway::new(
            lm_model(),
            GatewayConfig {
                max_live: 1,
                ttl_ticks: 2,
                ..GatewayConfig::default()
            },
        );
        let hog = gw.submit(req(&[1, 2, 3], 20, 0)).unwrap();
        let starved = gw.submit(req(&[4, 5], 5, 1)).unwrap();
        for _ in 0..30 {
            gw.tick();
        }
        let done = gw.drain_completions();
        let shed = done.iter().find(|c| c.id == starved).expect("shed");
        assert_eq!(shed.reason, FinishReason::ExpiredInQueue);
        assert_eq!(shed.tokens, vec![4, 5]);
        assert_eq!(shed.finished_at - shed.submitted_at, 3); // ttl + 1 ticks waited
        let served = done.iter().find(|c| c.id == hog).expect("hog completes");
        assert_eq!(served.reason, FinishReason::TokenBudget);
        assert_eq!(served.generated().len(), 20);
        assert_eq!(gw.stats().expired, 1);
    }

    #[test]
    fn position_table_exhaustion_drains_the_session() {
        let mut gw = Gateway::new(lm_model(), GatewayConfig::default());
        let id = gw.submit(req(&[7, 31, 13, 2], 1000, 0)).unwrap();
        let capacity = gw.table_capacity();
        while gw.live_len() + gw.queue_len() > 0 {
            gw.tick();
        }
        let done = gw.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].reason, FinishReason::CapacityExhausted);
        assert_eq!(done[0].tokens.len(), capacity);
    }

    #[test]
    fn eos_finishes_a_request_early() {
        let learn = {
            let mut gw = Gateway::new(lm_model(), GatewayConfig::default());
            let out = gw.run_trace(&[TraceEvent {
                at_tick: 0,
                request: req(&[3, 11, 7], 8, 9),
            }]);
            out.completions[0].generated()[0]
        };
        let mut gw = Gateway::new(
            lm_model(),
            GatewayConfig {
                eos: Some(learn),
                ..GatewayConfig::default()
            },
        );
        let out = gw.run_trace(&[TraceEvent {
            at_tick: 0,
            request: req(&[3, 11, 7], 8, 9),
        }]);
        assert_eq!(out.completions[0].reason, FinishReason::Eos);
        assert_eq!(out.completions[0].generated(), &[learn]);
    }

    #[test]
    fn budget_parking_matches_unlimited_budget_bit_for_bit() {
        let run = |kv_row_budget: usize| {
            let mut gw = Gateway::new(
                lm_model(),
                GatewayConfig {
                    max_live: 4,
                    prefill_chunk: 3,
                    kv_row_budget,
                    sampling: Sampling::Temperature(1.1),
                    ..GatewayConfig::default()
                },
            );
            let out = gw.run_trace(&mixed_trace());
            (by_id(&out), gw.stats().park_events)
        };
        let (unlimited, parks_unlimited) = run(usize::MAX);
        let (tight, parks_tight) = run(18);
        assert_eq!(parks_unlimited, 0);
        assert!(parks_tight > 0, "tight budget must actually park");
        assert_eq!(tight, unlimited, "parking must be invisible in outputs");
    }
}
