//! The five workloads. Each drives a protected system under test and its
//! unprotected twin op by op from this one thread, checks outputs against
//! the oracle, and reports end-to-end metrics (untraced run) or the
//! workload-side per-layer metrics (traced run).

use crate::api::{
    self, thread_alloc_events, AbftReport, AttnOp, CheckpointManager, Completion, DecodeEngine,
    Example, FaultKind, FinishReason, Gateway, GatewayConfig, InjectionSpec, ModelConfig,
    ProtectionConfig, RecoveryTiming, Request, Sampling, StepOutcome, SyntheticMrpc, Trainer,
};
use crate::harness::{
    derive_latency, mean, median, percentile, HarnessError, Inputs, Lockstep, Result, Served,
    VirtualClock,
};
use crate::metrics::{Values, SERVE_CLOSED_KV, SERVE_OPEN, TRAIN_CLEAN, TRAIN_FAULTY};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated and its median reported, so that one slow page-in
/// does not read as a set-up regression.
const SETUP_REPS: usize = 3;
/// A run measures for `--seconds`, and at least this many rounds, sessions
/// or requests, so that every median it prints has its ten samples beyond
/// on any host.
const MIN_OPS: usize = 24;
/// The serving workloads print p95s of ticks and token gaps, which need 200
/// samples: three blocks of requests yield them at every scale.
const MIN_REQUESTS: usize = 3 * Inputs::BLOCK;
/// A traced run records every other lock-step pair and compares the two
/// halves, so each half needs its own 20 samples. Only training pairs are
/// this scarce: a session holds hundreds of pairs and a request tens.
const MIN_ROUNDS_TRACED: usize = 40;
/// The traced run spends this share of `--seconds` on the workload and the
/// rest on the layer probes.
pub const TRACED_WORKLOAD_SHARE: f64 = 0.5;
/// Every `CR_EVERY`-th round of `train_faulty` the twin recovers by
/// checkpoint/restore instead of taking a clean step.
const CR_EVERY: usize = 6;
/// Every `REGEN_EVERY`-th served request is regenerated on a serial engine.
const REGEN_EVERY: u64 = 8;
const BATCHES: usize = 8;
const SERVE_WARMUP_REQUESTS: usize = 8;
pub(crate) const SAMPLING: Sampling = Sampling::Temperature(0.9);

/// Latency limits behind `slo_share`, fixed once from the medians measured
/// when the benchmark was defined: three times the p50, five times on
/// `serve_open` (README, "Constants").
#[derive(Debug, Clone, Copy)]
pub struct SloLimits {
    pub train_step_ms: f64,
    pub decode_ttft_ms: f64,
    pub decode_itl_ms: f64,
    pub open_ttft_ms: f64,
    pub open_itl_ms: f64,
    pub closed_req_ms: f64,
}

/// Shapes and traffic of one benchmark scale.
#[derive(Debug, Clone)]
pub struct Scale {
    pub train: ModelConfig,
    pub lm: ModelConfig,
    pub batch: usize,
    pub seq: usize,
    pub decode_prompt: usize,
    pub decode_steps: usize,
    pub open_prompt: (usize, usize),
    pub open_new: (usize, usize),
    /// Arrival rate of `serve_open` in requests per virtual second: a
    /// constant, about 0.3 of the closed-loop capacity measured on this mix
    /// when the benchmark was defined (21 req/s), never computed at run time.
    /// At 0.45 a slow phase of the host pushed utilisation past 0.6, where
    /// queueing multiplies host drift: between ten runs `slo_share` then
    /// spread 0.11 and `req_p50_ms` 0.54 of the median.
    pub open_rate_hz: f64,
    pub closed_prompt: (usize, usize),
    pub closed_new: (usize, usize),
    pub closed_clients: usize,
    pub closed_kv_rows: usize,
    pub slo: SloLimits,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            train: api::train_config(false),
            lm: api::lm_config(false),
            batch: 8,
            seq: 64,
            decode_prompt: 32,
            decode_steps: 224,
            open_prompt: (8, 48),
            open_new: (8, 32),
            open_rate_hz: 6.5,
            closed_prompt: (2, 4),
            closed_new: (48, 96),
            closed_clients: 12,
            closed_kv_rows: 256,
            slo: SloLimits {
                train_step_ms: 360.0,
                decode_ttft_ms: 10.0,
                decode_itl_ms: 3.1,
                open_ttft_ms: 160.0,
                open_itl_ms: 5.0,
                closed_req_ms: 2400.0,
            },
        }
    }

    /// Hidden 32, one layer: seconds for the whole set. Its numbers check
    /// that every metric is emitted; they are not measurements.
    pub fn smoke() -> Self {
        let unlimited = f64::INFINITY;
        Self {
            train: api::train_config(true),
            lm: api::lm_config(true),
            batch: 4,
            seq: 16,
            decode_prompt: 8,
            decode_steps: 24,
            open_prompt: (4, 12),
            open_new: (4, 8),
            open_rate_hz: 50.0,
            closed_prompt: (2, 4),
            closed_new: (12, 24),
            closed_clients: 4,
            closed_kv_rows: 40,
            slo: SloLimits {
                train_step_ms: unlimited,
                decode_ttft_ms: unlimited,
                decode_itl_ms: unlimited,
                open_ttft_ms: unlimited,
                open_itl_ms: unlimited,
                closed_req_ms: unlimited,
            },
        }
    }

    /// The gateway of the serving workloads and of the gateway probe.
    pub(crate) fn gateway(&self, kv_row_budget: usize) -> GatewayConfig {
        GatewayConfig {
            queue_depth: 64,
            max_live: 6,
            prefill_chunk: 4,
            kv_row_budget,
            ttl_ticks: 400,
            eos: None,
            sampling: SAMPLING,
            workers: 1,
        }
    }
}

/// One run of one workload.
pub struct Run<'a> {
    pub workload: &'a str,
    pub scale: &'a Scale,
    pub seed: u64,
    /// Wall seconds the timed section measures for.
    pub budget_s: f64,
    /// Directory for checkpoints and traces, inside the checkout.
    pub out_dir: PathBuf,
}

impl Run<'_> {
    fn keep_going(&self, started: Instant, done: usize, min_ops: usize) -> bool {
        started.elapsed().as_secs_f64() < self.budget_s || done < min_ops
    }
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps, sessions or requests attempted.
    pub attempted: u64,
    /// Those that violated the oracle.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub values: Values,
    /// Lines for the human reader: sample counts, oracle violations, tails.
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(format!("oracle: {what}"));
        }
    }
}

/// Build the systems `SETUP_REPS` times, keep the last, and return the
/// median build time in seconds.
fn set_up<T>(mut build: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut system = None;
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(system.take());
        let t0 = Instant::now();
        system = Some(build()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    seconds.sort_by(f64::total_cmp);
    Ok((system.expect("SETUP_REPS > 0"), seconds[SETUP_REPS / 2]))
}

/// ABFT activity summed over the protected side's reports.
#[derive(Default)]
struct Activity {
    detections: usize,
    corrections: usize,
    false_positives: usize,
}

impl Activity {
    fn add(&mut self, report: &AbftReport) {
        self.detections += report.detections + report.op_detections;
        self.corrections += report.correction_count() + report.op_heals;
    }

    /// A report of fault-free work: anything it detected is a false positive.
    fn add_clean(&mut self, report: &AbftReport) {
        self.add(report);
        if !report.is_quiet() {
            self.false_positives += 1;
        }
    }

    fn put(&self, values: &mut Values) {
        values.put("core.detections", self.detections as f64);
        values.put("core.corrections", self.corrections as f64);
        values.put("core.false_positives", self.false_positives as f64);
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn share(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The protected side's throughput and latencies in absolute time. On the
/// host this benchmark was defined on they follow the shared cache's phases
/// (README, "Why four bounded metrics"), so they carry no bound: the traced
/// run reports them as metrics, the untraced run as `#` lines.
fn put_absolute(out: &mut Outcome, traced: bool, tok_s: f64, step_s: f64, req_s: f64) {
    if traced {
        out.values.put("tok_s", tok_s);
        out.values.put("step_p50_ms", ms(step_s));
        out.values.put("req_p50_ms", ms(req_s));
    } else {
        out.notes.push(format!(
            "unbounded: tok_s {tok_s:.1} tok/s, step_p50_ms {:.4} ms, req_p50_ms {:.3} ms",
            ms(step_s),
            ms(req_s)
        ));
    }
}

/// A tail percentile for the human reader, when the sample supports it.
fn tail_note(label: &str, samples_s: &[f64], p: f64) -> String {
    match percentile(samples_s, p, label) {
        Ok(v) => format!(
            "{label} p{}: {:.3} ms over {} samples (not in the result line)",
            p * 100.0,
            ms(v),
            samples_s.len()
        ),
        Err(e) => format!("{e}; not printed"),
    }
}

// ---------------------------------------------------------------- training

struct TrainSystem {
    prot: Trainer,
    twin: Trainer,
    /// Attention-only protection, the paper's scope; traced runs only.
    attn_only: Option<Trainer>,
    ckpt: Option<CheckpointManager>,
}

/// The dataset is cycled as `BATCHES` fixed batches.
fn batch_of(data: &SyntheticMrpc, round: usize, size: usize) -> Vec<&Example> {
    let start = (round % BATCHES) * size;
    data.examples[start..start + size].iter().collect()
}

fn injection(inputs: &mut Inputs, round: usize, cfg: &ModelConfig) -> InjectionSpec {
    const KINDS: [FaultKind; 3] = [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf];
    InjectionSpec {
        layer: inputs.index(cfg.layers),
        op: AttnOp::STUDY[round % AttnOp::STUDY.len()],
        head: inputs.index(cfg.heads),
        row: inputs.index(1 << 12),
        col: inputs.index(1 << 12),
        kind: KINDS[round % KINDS.len()],
    }
}

fn recover(
    ckpt: &mut CheckpointManager,
    twin: &mut Trainer,
    batch: &[&Example],
) -> Result<(RecoveryTiming, StepOutcome)> {
    ckpt.recover_and_replay(twin, batch)
        .map_err(|e| HarnessError(format!("checkpoint recovery: {e}")))
}

/// `train_clean` and `train_faulty`.
pub fn train(run: &Run, tracer: &mut Tracer) -> Result<Outcome> {
    let faulty = run.workload == TRAIN_FAULTY;
    debug_assert!(faulty || run.workload == TRAIN_CLEAN);
    let scale = run.scale;
    let cfg = &scale.train;
    let ckpt_dir = run.out_dir.join(format!("ckpt-{}", std::process::id()));
    let mut inputs = Inputs::new(run.seed);

    let ((mut sys, data), setup_s) = set_up(|| {
        let data = SyntheticMrpc::generate(BATCHES * scale.batch, cfg.vocab, scale.seq, run.seed);
        let mut sys = TrainSystem {
            prot: api::build_trainer(cfg, ProtectionConfig::full()),
            twin: api::build_trainer(cfg, ProtectionConfig::off()),
            attn_only: tracer
                .enabled()
                .then(|| api::build_trainer(cfg, ProtectionConfig::attention_only())),
            ckpt: None,
        };
        if faulty {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            sys.ckpt = Some(
                CheckpointManager::new(&ckpt_dir)
                    .map_err(|e| HarnessError(format!("checkpoint directory: {e}")))?,
            );
        }
        // Warm-up: two untimed rounds on the paths the timed rounds take.
        for round in 0..2 {
            let batch = batch_of(&data, round, scale.batch);
            if faulty {
                let spec = injection(&mut Inputs::new(0), round, cfg);
                sys.prot.train_step_injected(&batch, Some((0, spec)));
            } else {
                sys.prot.train_step(&batch);
            }
            match (&mut sys.ckpt, round) {
                (Some(ckpt), 0) => {
                    recover(ckpt, &mut sys.twin, &batch)?;
                }
                _ => {
                    sys.twin.train_step(&batch);
                }
            }
            if let Some(third) = &mut sys.attn_only {
                third.train_step(&batch);
            }
        }
        Ok((sys, data))
    })?;

    let mut out = Outcome::default();
    let mut steps = Lockstep::default();
    let mut third_s = Vec::new();
    let mut attn_share = Vec::new();
    let mut ffn_share = Vec::new();
    let mut recoveries: Vec<RecoveryTiming> = Vec::new();
    let mut activity = Activity::default();
    let (mut corrected, mut unrecovered, mut within_slo) = (0usize, 0usize, 0usize);
    let allocs0 = thread_alloc_events();
    let min_rounds = if tracer.enabled() {
        MIN_ROUNDS_TRACED
    } else {
        MIN_OPS
    };
    let started = Instant::now();
    let mut round = 0usize;
    while run.keep_going(started, round, min_rounds) {
        let TrainSystem {
            prot,
            twin,
            attn_only,
            ckpt,
        } = &mut sys;
        let batch = batch_of(&data, round, scale.batch);
        let item = inputs.index(scale.batch);
        let inject = faulty.then(|| (item, injection(&mut inputs, round, cfg)));

        tracer.begin_op(round as u64);
        let round_span = tracer.open_span("round");
        let (p, t) = match ckpt {
            Some(ckpt) if round % CR_EVERY == CR_EVERY - 1 => {
                let (p, prot_s) =
                    tracer.span("train_step", || prot.train_step_injected(&batch, inject));
                let (recovered, _) =
                    tracer.span("recover_and_replay", || recover(ckpt, twin, &batch));
                let (timing, t) = recovered?;
                // The twin's share of this pair is the replayed step alone;
                // save and load are the price of checkpoint/restore.
                steps.record(prot_s, timing.replay.as_secs_f64(), tracer.sampling());
                recoveries.push(timing);
                (p, t)
            }
            _ => steps.pair(
                tracer,
                "train_step",
                || prot.train_step_injected(&batch, inject),
                || twin.train_step(&batch),
            ),
        };
        if let Some(third) = attn_only {
            let t0 = Instant::now();
            third.train_step(&batch);
            third_s.push(t0.elapsed().as_secs_f64());
        }
        tracer.close_span(round_span);

        let prot_s = *steps.prot_s.last().expect("pair recorded");
        attn_share.push(p.attention_time.as_secs_f64() / p.step_time.as_secs_f64());
        ffn_share.push(p.ffn_time.as_secs_f64() / p.step_time.as_secs_f64());
        within_slo += usize::from(ms(prot_s) <= scale.slo.train_step_ms);
        out.attempted += 1;
        if faulty {
            activity.add(&p.report);
            for (i, r) in p.item_reports.iter().enumerate() {
                if i != item && !r.is_quiet() {
                    activity.false_positives += 1;
                }
            }
            corrected += usize::from(p.report.correction_count() > 0);
            unrecovered += p.report.unrecovered;
            if p.non_trainable {
                out.fail(format!(
                    "round {round}: non-trainable after a corrected fault"
                ));
            } else if p.report.correction_count() == 0 {
                out.fail(format!("round {round}: injected fault was not corrected"));
            } else if (p.loss - t.loss).abs() >= 5e-3 {
                out.fail(format!(
                    "round {round}: loss {} left the twin's {}",
                    p.loss, t.loss
                ));
            }
        } else {
            activity.add_clean(&p.report);
            if !p.loss.is_finite() || p.non_trainable {
                out.fail(format!("round {round}: loss {} / non-trainable", p.loss));
            } else if !p.report.is_quiet() {
                out.fail(format!("round {round}: false positive: {}", p.report));
            }
        }
        round += 1;
    }
    let allocs = thread_alloc_events() - allocs0;
    if faulty {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    let rounds = steps.len();
    let what = run.workload;
    out.notes.push(format!("{rounds} lock-step rounds"));
    let step_s = median(&steps.prot_s, what)?;
    // A trainer serves one request at a time: the step.
    put_absolute(
        &mut out,
        tracer.enabled(),
        (rounds * scale.batch * scale.seq) as f64 / steps.prot_s.iter().sum::<f64>(),
        step_s,
        step_s,
    );
    let v = &mut out.values;
    if !tracer.enabled() {
        v.put("setup_s", setup_s);
        v.put("protected_ratio", steps.ratio(what)?);
        v.put("slo_share", share(within_slo, rounds));
        return Ok(out);
    }
    // Ratios and differences are taken inside each round, like
    // `protected_ratio`, so that drift cancels.
    let per_round = |f: fn(f64, f64) -> f64, a: &[f64]| -> Vec<f64> {
        a.iter()
            .zip(&steps.twin_s)
            .map(|(&x, &t)| f(x, t))
            .collect()
    };
    let twin_s = median(&steps.twin_s, what)?;
    v.put("model.step_ms.off", ms(twin_s));
    v.put(
        "model.step_ratio.attn_only",
        median(&per_round(|x, t| x / t, &third_s), what)?,
    );
    v.put("model.attn_share", median(&attn_share, what)?);
    v.put("model.ffn_share", median(&ffn_share, what)?);
    v.put("tensor.ws_allocs_per_op", allocs as f64 / rounds as f64);
    v.put("bench.trace_overhead", steps.trace_overhead()?);
    activity.put(v);
    if faulty {
        // Too few recoveries in a run for a median under the ten-beyond
        // rule: these are means, and say so in the README.
        let of = |f: fn(&RecoveryTiming) -> f64| -> Result<f64> {
            mean(&recoveries.iter().map(f).collect::<Vec<_>>(), "ckpt")
        };
        let total_s = of(|r| r.total().as_secs_f64())?;
        v.put("ckpt.save_ms", ms(of(|r| r.save.as_secs_f64())?));
        v.put("ckpt.load_ms", ms(of(|r| r.load.as_secs_f64())?));
        v.put("ckpt.replay_ms", ms(of(|r| r.replay.as_secs_f64())?));
        v.put("ckpt.bytes", of(|r| r.bytes as f64)?);
        // ABFT's recovery cost is the faulty protected step beyond a clean
        // unprotected one; floored at 0.5 % of a step as in fig11.
        let abft_s = median(&per_round(|x, t| x - t, &steps.prot_s), what)?.max(0.005 * twin_s);
        v.put("ckpt.cr_over_abft", total_s / abft_s);
        v.put("fault.injected", rounds as f64);
        v.put("fault.corrected", corrected as f64);
        v.put("fault.unrecovered", unrecovered as f64);
        out.notes
            .push(format!("{} checkpoint recoveries", recoveries.len()));
    }
    Ok(out)
}

// ----------------------------------------------------------------- decode

/// `decode_offline`.
pub fn decode(run: &Run, tracer: &mut Tracer) -> Result<Outcome> {
    let scale = run.scale;
    let cfg = &scale.lm;
    let mut inputs = Inputs::new(run.seed);

    let ((mut prot, mut twin), setup_s) = set_up(|| {
        let mut prot = api::build_engine(cfg, ProtectionConfig::full());
        let mut twin = api::build_engine(cfg, ProtectionConfig::off());
        // Warm-up: one untimed session on both engines.
        let prompt = Inputs::new(0).tokens(scale.decode_prompt, cfg.vocab);
        for engine in [&mut prot, &mut twin] {
            let mut session = engine.open_session(&prompt, 0);
            engine.generate(&mut session, scale.decode_steps, Sampling::Greedy);
        }
        Ok((prot, twin))
    })?;

    let mut out = Outcome::default();
    let mut opens = Lockstep::default();
    let mut steps = Lockstep::default();
    let mut session_s = Vec::new();
    let mut activity = Activity::default();
    let mut within_slo = 0usize;
    let allocs0 = thread_alloc_events();
    let started = Instant::now();
    let mut session = 0usize;
    while run.keep_going(started, session, MIN_OPS) {
        let prompt = inputs.tokens(scale.decode_prompt, cfg.vocab);
        tracer.begin_op(session as u64);
        let session_span = tracer.open_span("session");
        let (mut p, mut t) = opens.pair(
            tracer,
            "open_session",
            || prot.open_session(&prompt, session as u64),
            || twin.open_session(&prompt, session as u64),
        );
        let first_step = steps.len();
        let mut diverged = false;
        for _ in 0..scale.decode_steps {
            let (a, b) = steps.pair(
                tracer,
                "step",
                || prot.step(&mut p, Sampling::Greedy),
                || twin.step(&mut t, Sampling::Greedy),
            );
            diverged |= a != b;
        }
        tracer.close_span(session_span);

        let open_s = *opens.prot_s.last().expect("pair recorded");
        let steps_s: f64 = steps.prot_s[first_step..].iter().sum();
        session_s.push(open_s + steps_s);
        within_slo += usize::from(
            ms(open_s) <= scale.slo.decode_ttft_ms
                && ms(steps_s) / scale.decode_steps as f64 <= scale.slo.decode_itl_ms,
        );
        activity.add_clean(&p.report);
        out.attempted += 1;
        if !p.report.is_quiet() {
            out.fail(format!("session {session}: false positive: {}", p.report));
        } else if diverged {
            out.fail(format!("session {session}: greedy tokens left the twin's"));
        }
        session += 1;
    }
    let allocs = thread_alloc_events() - allocs0;

    let what = run.workload;
    out.notes
        .push(format!("{session} sessions, {} decode steps", steps.len()));
    out.notes.push(tail_note("itl", &steps.prot_s, 0.99));
    put_absolute(
        &mut out,
        tracer.enabled(),
        steps.len() as f64 / steps.prot_s.iter().sum::<f64>(),
        median(&steps.prot_s, what)?,
        median(&session_s, what)?,
    );
    let v = &mut out.values;
    if !tracer.enabled() {
        v.put("setup_s", setup_s);
        v.put("protected_ratio", steps.ratio(what)?);
        v.put("slo_share", share(within_slo, session));
        return Ok(out);
    }
    v.put("prefill_protected_ratio", opens.ratio(what)?);
    v.put("ttft_p50_ms", ms(median(&opens.prot_s, what)?));
    // Tokens of one session follow one another with no wait in between, so
    // the gap between them is the step.
    v.put("itl_p50_ms", ms(median(&steps.prot_s, what)?));
    v.put("itl_p95_ms", ms(percentile(&steps.prot_s, 0.95, what)?));
    v.put(
        "tensor.ws_allocs_per_op",
        allocs as f64 / steps.len() as f64,
    );
    v.put("bench.trace_overhead", steps.trace_overhead()?);
    activity.put(v);
    Ok(out)
}

// ------------------------------------------------------------------ serve

/// A request the driver sent, indexed by the id both gateways gave it.
struct Sent {
    request: Request,
    due_s: f64,
    completion: Option<Completion>,
}

/// The protected gateway, its twin slaved to the same submissions before
/// the same logical tick, and what the driver knows about both.
struct ServeDriver {
    prot: Gateway,
    twin: Gateway,
    clock: VirtualClock,
    ticks: Lockstep,
    /// Virtual time at the end of gateway tick `k`.
    tick_end_s: Vec<f64>,
    /// Protected tick wall ÷ sessions the tick stepped, for ticks that
    /// stepped any.
    session_step_s: Vec<f64>,
    sent: Vec<Sent>,
    rejected: u64,
}

impl ServeDriver {
    fn build(scale: &Scale, gateway: GatewayConfig) -> Self {
        Self {
            prot: api::build_gateway(&scale.lm, ProtectionConfig::full(), gateway),
            twin: api::build_gateway(&scale.lm, ProtectionConfig::off(), gateway),
            clock: VirtualClock::default(),
            ticks: Lockstep::default(),
            tick_end_s: Vec::new(),
            session_step_s: Vec::new(),
            sent: Vec::new(),
            rejected: 0,
        }
    }

    fn idle(&self) -> bool {
        self.prot.queue_len() + self.prot.live_len() == 0
    }

    /// Submit to both gateways. A request both shed is counted; one that
    /// only one accepted means the twin left the schedule.
    fn submit(&mut self, tracer: &mut Tracer, request: Request, due_s: f64) -> Result<Option<u64>> {
        tracer.begin_op_always(self.sent.len() as u64);
        let (p, _) = tracer.span("submit", || self.prot.submit(request.clone()));
        let t = self.twin.submit(request.clone());
        match (p, t) {
            (Ok(id), Ok(twin_id)) if id == twin_id && id as usize == self.sent.len() => {
                self.sent.push(Sent {
                    request,
                    due_s,
                    completion: None,
                });
                Ok(Some(id))
            }
            (Err(_), Err(_)) => {
                self.rejected += 1;
                Ok(None)
            }
            (p, t) => Err(HarnessError(format!(
                "submit: protected {p:?}, twin {t:?}, {} sent",
                self.sent.len()
            ))),
        }
    }

    /// One logical tick on both gateways; returns the ids the protected
    /// gateway finished.
    fn tick(&mut self, tracer: &mut Tracer) -> Result<Vec<u64>> {
        tracer.begin_op(self.tick_end_s.len() as u64);
        let Self {
            prot, twin, ticks, ..
        } = self;
        let moved = |g: &Gateway| g.stats().fed_tokens + g.stats().generated_tokens;
        let before = moved(prot);
        ticks.pair(tracer, "tick", || prot.tick(), || twin.tick());
        let tick_s = *ticks.prot_s.last().expect("pair recorded");
        let stepped = moved(prot) - before;
        if stepped > 0 {
            self.session_step_s.push(tick_s / stepped as f64);
        }
        self.clock.advance(tick_s);
        self.tick_end_s.push(self.clock.now());
        let (done, _) = tracer.span("drain_completions", || self.prot.drain_completions());
        let twin_done = self.twin.drain_completions();
        let schedule = |c: &Completion| (c.id, c.submitted_at, c.finished_at, c.tokens.len());
        if !done.iter().map(schedule).eq(twin_done.iter().map(schedule)) {
            return Err(HarnessError(format!(
                "tick {}: the twin's completions left the protected schedule",
                self.tick_end_s.len() - 1
            )));
        }
        let mut ids = Vec::with_capacity(done.len());
        for c in done {
            let slot = self
                .sent
                .get_mut(c.id as usize)
                .filter(|s| s.completion.is_none())
                .ok_or_else(|| HarnessError(format!("request {} returned twice", c.id)))?;
            ids.push(c.id);
            slot.completion = Some(c);
        }
        Ok(ids)
    }
}

/// The request stream of a serving workload: block-stratified sizes and
/// gaps from `--seed`, token contents and sampling seeds too.
struct Traffic {
    inputs: Inputs,
    seed: u64,
    vocab: usize,
    prompt: (usize, usize),
    new: (usize, usize),
    rate_hz: f64,
    block: Vec<(usize, usize, f64)>,
    produced: u64,
    next_due_s: f64,
}

impl Traffic {
    fn new(
        seed: u64,
        vocab: usize,
        prompt: (usize, usize),
        new: (usize, usize),
        rate_hz: f64,
    ) -> Self {
        let mut traffic = Self {
            inputs: Inputs::new(seed),
            seed,
            vocab,
            prompt,
            new,
            rate_hz,
            block: Vec::new(),
            produced: 0,
            next_due_s: 0.0,
        };
        traffic.next_due_s = traffic.peek().2;
        traffic
    }

    fn peek(&mut self) -> (usize, usize, f64) {
        if self.block.is_empty() {
            let prompts = self.inputs.uniform_block(self.prompt);
            let news = self.inputs.uniform_block(self.new);
            let gaps = self.inputs.poisson_gap_block(self.rate_hz);
            self.block = prompts
                .into_iter()
                .zip(news)
                .zip(gaps)
                .map(|((p, n), g)| (p, n, g))
                .collect();
        }
        *self.block.last().expect("block just filled")
    }

    /// Virtual second the next request is due (open loop).
    fn next_due_s(&self) -> f64 {
        self.next_due_s
    }

    /// The next request and its due time.
    fn next(&mut self) -> (Request, f64) {
        let (prompt_len, max_new, _) = self.peek();
        self.block.pop();
        let due_s = self.next_due_s;
        self.next_due_s += self.peek().2;
        let request = Request {
            prompt: self.inputs.tokens(prompt_len, self.vocab),
            max_new,
            seed: self
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add(self.produced),
        };
        self.produced += 1;
        (request, due_s)
    }
}

/// The serving oracle for one returned request; `serial`, when given,
/// regenerates it on a serial engine with the same prompt, seed and sampling.
fn served_wrongly(
    request: &Request,
    c: &Completion,
    serial: Option<&mut DecodeEngine>,
) -> Option<String> {
    if c.reason != FinishReason::TokenBudget {
        return Some(format!("finished by {:?}", c.reason));
    }
    if c.generated().len() != request.max_new {
        return Some(format!(
            "{} of {} tokens",
            c.generated().len(),
            request.max_new
        ));
    }
    if !c.report.is_quiet() {
        return Some(format!("false positive: {}", c.report));
    }
    let serial = serial?;
    let mut session = serial.open_session(&request.prompt, request.seed);
    (serial.generate(&mut session, request.max_new, SAMPLING) != c.generated())
        .then(|| "tokens differ from a serial engine's".to_owned())
}

/// `serve_open` and `serve_closed_kv`.
pub fn serve(run: &Run, tracer: &mut Tracer) -> Result<Outcome> {
    let closed = run.workload == SERVE_CLOSED_KV;
    debug_assert!(closed || run.workload == SERVE_OPEN);
    let scale = run.scale;
    let gateway = scale.gateway(if closed {
        scale.closed_kv_rows
    } else {
        usize::MAX
    });
    let (prompt, new) = if closed {
        (scale.closed_prompt, scale.closed_new)
    } else {
        (scale.open_prompt, scale.open_new)
    };
    let new_traffic = |seed| Traffic::new(seed, scale.lm.vocab, prompt, new, scale.open_rate_hz);

    let (mut drv, setup_s) = set_up(|| {
        // Warm-up: eight requests through both gateways, then fresh ones, so
        // that ids and ticks of the timed section start at zero.
        let mut warm = ServeDriver::build(scale, gateway);
        let mut requests = new_traffic(0);
        let mut quiet = Tracer::new(false);
        for _ in 0..SERVE_WARMUP_REQUESTS {
            warm.submit(&mut quiet, requests.next().0, 0.0)?;
        }
        while !warm.idle() {
            warm.tick(&mut quiet)?;
        }
        Ok(ServeDriver::build(scale, gateway))
    })?;

    let mut traffic = new_traffic(run.seed);
    let allocs0 = thread_alloc_events();
    let started = Instant::now();
    if closed {
        // Each client sends its next request when its previous one has been
        // drained.
        let mut waiting_on: Vec<Option<u64>> = vec![None; scale.closed_clients];
        loop {
            let sending = run.keep_going(started, drv.sent.len(), MIN_REQUESTS);
            if sending {
                for slot in waiting_on.iter_mut().filter(|s| s.is_none()) {
                    let now = drv.clock.now();
                    *slot = drv.submit(tracer, traffic.next().0, now)?;
                }
            }
            if drv.idle() {
                break;
            }
            let done = drv.tick(tracer)?;
            for slot in &mut waiting_on {
                if slot.is_some_and(|id| done.contains(&id)) {
                    *slot = None;
                }
            }
        }
    } else {
        // Open loop: every request is sent when it is due, whatever the
        // gateway is doing, and timed from when it was due.
        loop {
            let sending = run.keep_going(started, drv.sent.len(), MIN_REQUESTS);
            while sending && drv.clock.is_due(traffic.next_due_s()) {
                let (request, due_s) = traffic.next();
                drv.submit(tracer, request, due_s)?;
            }
            if drv.idle() {
                if !sending {
                    break;
                }
                drv.clock.skip_idle_to(traffic.next_due_s());
                continue;
            }
            drv.tick(tracer)?;
        }
    }
    let allocs = thread_alloc_events() - allocs0;
    let stats = *drv.prot.stats();
    if !closed && stats.park_events != 0 {
        return Err(HarnessError(format!(
            "serve_open parked {} sessions: token times no longer follow from finish ticks",
            stats.park_events
        )));
    }

    // Oracle and latencies, request by request.
    let mut out = Outcome {
        attempted: drv.sent.len() as u64 + drv.rejected,
        ..Outcome::default()
    };
    for _ in 0..drv.rejected {
        out.fail("request shed at submission".into());
    }
    let mut serial = api::build_engine(&scale.lm, ProtectionConfig::full());
    let mut activity = Activity::default();
    let (mut ttft_s, mut itl_s, mut total_s, mut queue_wait) = (vec![], vec![], vec![], vec![]);
    let (mut within_slo, mut generated) = (0usize, 0usize);
    for (id, sent) in drv.sent.iter().enumerate() {
        let Some(c) = &sent.completion else {
            out.fail(format!("request {id} never returned"));
            continue;
        };
        activity.add_clean(&c.report);
        generated += c.generated().len();
        let latency_total_s = drv.tick_end_s[c.finished_at as usize] - sent.due_s;
        total_s.push(latency_total_s);
        let regenerate = (id as u64).is_multiple_of(REGEN_EVERY);
        let violation = served_wrongly(&sent.request, c, regenerate.then_some(&mut serial));
        let ok = violation.is_none();
        if let Some(what) = violation {
            out.fail(format!("request {id}: {what}"));
        }
        if closed {
            within_slo += usize::from(ok && ms(latency_total_s) <= scale.slo.closed_req_ms);
            continue;
        }
        let latency = derive_latency(
            &Served {
                due_s: sent.due_s,
                submitted_at: c.submitted_at,
                finished_at: c.finished_at,
                generated: c.generated().len(),
                fed: sent
                    .request
                    .prompt
                    .len()
                    .saturating_sub(gateway.prefill_chunk),
            },
            &drv.tick_end_s,
        )?;
        let mean_itl_s = latency.itl_s.iter().sum::<f64>() / latency.itl_s.len().max(1) as f64;
        within_slo += usize::from(
            ok && ms(latency.ttft_s) <= scale.slo.open_ttft_ms
                && ms(mean_itl_s) <= scale.slo.open_itl_ms,
        );
        ttft_s.push(latency.ttft_s);
        itl_s.extend(latency.itl_s);
        queue_wait.push(latency.queue_wait_ticks as f64);
    }

    let what = run.workload;
    let ticks = &drv.ticks;
    let busy_s: f64 = ticks.prot_s.iter().sum();
    out.notes.push(format!(
        "{} requests sent, {} shed, {} ticks, {:.2} virtual s, {:.0} % busy",
        drv.sent.len(),
        drv.rejected,
        ticks.len(),
        drv.clock.now(),
        100.0 * busy_s / drv.clock.now()
    ));
    out.notes.push(tail_note("request latency", &total_s, 0.95));
    if !closed {
        out.notes.push(tail_note("ttft", &ttft_s, 0.5));
        out.notes.push(tail_note("ttft", &ttft_s, 0.95));
        out.notes.push(tail_note("itl", &itl_s, 0.5));
        out.notes.push(tail_note("itl", &itl_s, 0.99));
    }
    // A tick's wall grows with the sessions it steps, in as many modes as
    // there are batch sizes; per session stepped it has one.
    put_absolute(
        &mut out,
        tracer.enabled(),
        generated as f64 / busy_s,
        median(&drv.session_step_s, what)?,
        median(&total_s, what)?,
    );
    let within_slo = share(within_slo, out.attempted as usize);
    let v = &mut out.values;
    if !tracer.enabled() {
        v.put("setup_s", setup_s);
        v.put("protected_ratio", ticks.ratio(what)?);
        v.put("slo_share", within_slo);
        return Ok(out);
    }
    if !closed {
        v.put("ttft_p50_ms", ms(median(&ttft_s, what)?));
        v.put("itl_p50_ms", ms(median(&itl_s, what)?));
        v.put("itl_p95_ms", ms(percentile(&itl_s, 0.95, what)?));
        v.put("serve.queue_wait_ticks_p50", median(&queue_wait, what)?);
        v.put("serve.queue_wait_ticks_mean", mean(&queue_wait, what)?);
    }
    let moved = (stats.fed_tokens + stats.generated_tokens) as f64;
    v.put("serve.tick_ms_p50", ms(median(&ticks.prot_s, what)?));
    v.put(
        "serve.tick_ms_p95",
        ms(percentile(&ticks.prot_s, 0.95, what)?),
    );
    v.put("serve.busy_share", busy_s / drv.clock.now());
    v.put("serve.batch_mean", moved / stats.engine_steps as f64);
    v.put("serve.fed_share", stats.fed_tokens as f64 / moved);
    v.put("serve.park_events", stats.park_events as f64);
    v.put("serve.unpark_events", stats.unpark_events as f64);
    v.put("serve.peak_hot_rows", stats.peak_hot_rows as f64);
    v.put("serve.rejected", drv.rejected as f64);
    v.put("serve.expired", stats.expired as f64);
    v.put(
        "tensor.ws_allocs_per_op",
        allocs as f64 / ticks.len() as f64,
    );
    v.put("bench.trace_overhead", ticks.trace_overhead()?);
    activity.put(v);
    Ok(out)
}
