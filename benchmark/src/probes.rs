//! Layer probes: the same calls into each layer's public functions in every
//! traced run, whatever the workload, so that a per-layer number reads the
//! same in all five and can be set against the end-to-end metric it should
//! move (README, "How the metrics interact").
//!
//! Variants of one probe (guard on/off, protection on/off) are stepped
//! round-robin, like the workloads' twins, and every figure is a median of
//! at least 20 calls.

use crate::api::{
    self, full_correct, gelu_matrix_checked, layer_norm_checked, matmul, matmul_nt,
    residual_add_checked, softmax_rows_checked, AbftConfig, AbftReport, AttentionWeights,
    AttnKvCache, CheckedMatrix, Matrix, OpGuard, PagedKv, ProtectedAttention, ProtectionConfig,
    Request, Sampling, SectionToggles, StepOp, Strategy, TensorRng,
};
use crate::harness::{median, Inputs, Result};
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workloads::{Scale, SAMPLING};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probes, each given an equal slice of the budget.
const SLICES: u32 = 14;
const MIN_SAMPLES: usize = 20;
/// Calls per variant that record a span; later calls are timed only, which
/// keeps the trace file small.
const TRACED_CALLS: usize = 64;
/// Steps timed per call of the decode-step probes.
const STEPS: usize = 4;
const HIDDEN: usize = 128;
const HEADS: usize = 4;
const SEQ: usize = 64;
const GUARD_TOL: f32 = 5e-4;

struct Prober<'a> {
    tracer: &'a mut Tracer,
    slice: Duration,
    calls: u64,
}

/// Seconds per call of `N` variants stepped round-robin: `samples[i][r]` is
/// variant `i` in round `r`.
struct Rounds<const N: usize> {
    samples: [Vec<f64>; N],
    what: &'static str,
}

impl<const N: usize> Rounds<N> {
    /// Median seconds per call of every variant.
    fn medians(&self) -> Result<[f64; N]> {
        let mut medians = [0.0; N];
        for (m, s) in medians.iter_mut().zip(&self.samples) {
            *m = median(s, self.what)?;
        }
        Ok(medians)
    }

    /// Median over the rounds of `combine(round)`, where `round[i]` is
    /// variant `i`'s seconds in that round: ratios and differences are taken
    /// between calls made back to back, like the workloads' lock-step pairs.
    fn per_round(&self, combine: impl Fn(&[f64; N]) -> f64) -> Result<f64> {
        let rounds = self.samples[0].len();
        let combined: Vec<f64> = (0..rounds)
            .map(|r| combine(&std::array::from_fn(|i| self.samples[i][r])))
            .collect();
        median(&combined, self.what)
    }
}

impl Prober<'_> {
    /// Step `N` variants round-robin until the slice has passed and each has
    /// its samples. `call(i, tracer)` prepares variant `i` untimed, times
    /// the call under test with `tracer.span`, and returns its seconds.
    fn measure<const N: usize>(
        &mut self,
        what: &'static str,
        mut call: impl FnMut(usize, &mut Tracer) -> f64,
    ) -> Rounds<N> {
        let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
        let t0 = Instant::now();
        while t0.elapsed() < self.slice || samples[0].len() < MIN_SAMPLES {
            for (i, s) in samples.iter_mut().enumerate() {
                self.calls += 1;
                self.tracer
                    .begin_probe_call(self.calls, s.len() < TRACED_CALLS);
                s.push(call(i, self.tracer));
            }
        }
        Rounds { samples, what }
    }
}

/// Run every probe; `budget_s` is shared among them.
pub fn run(scale: &Scale, seed: u64, budget_s: f64, tracer: &mut Tracer) -> Result<Values> {
    let mut prober = Prober {
        tracer,
        slice: Duration::from_secs_f64(budget_s / f64::from(SLICES)),
        calls: 0,
    };
    let mut values = Values::default();
    let mut rng = TensorRng::seed_from(seed);
    tensor_gemm(&mut prober, &mut rng, &mut values)?;
    tensor_guards(&mut prober, &mut rng, &mut values)?;
    tensor_kv(&mut prober, &mut rng, &mut values)?;
    core_attention(&mut prober, &mut rng, &mut values)?;
    core_decode(&mut prober, &mut rng, &mut values)?;
    core_correct(&mut prober, &mut rng, &mut values)?;
    model_and_infer(&mut prober, scale, seed, &mut values)?;
    gateway_over_serial(&mut prober, scale, seed, &mut values)?;
    Ok(values)
}

// ----------------------------------------------------------------- tensor

/// `(m, k, n, b_is_transposed)`: the GEMMs of one attention + FFN block at
/// the training shape, and their single-row images at decode.
const GEMM_TRAIN: [(usize, usize, usize, bool); 5] = [
    (64, 128, 128, false),
    (64, 32, 64, true),
    (64, 64, 32, false),
    (64, 128, 512, false),
    (64, 512, 128, false),
];
const GEMM_M1: [(usize, usize, usize, bool); 5] = [
    (1, 128, 128, false),
    (1, 128, 512, false),
    (1, 512, 128, false),
    (1, 32, 128, true),
    (1, 128, 32, false),
];

fn tensor_gemm(p: &mut Prober, rng: &mut TensorRng, values: &mut Values) -> Result<()> {
    for (name, span, shapes) in [
        ("tensor.gemm_gflops.train", "gemm.train", GEMM_TRAIN),
        ("tensor.gemm_gflops.m1", "gemm.m1", GEMM_M1),
    ] {
        let operands: Vec<(Matrix, Matrix, bool)> = shapes
            .iter()
            .map(|&(m, k, n, nt)| {
                let a = rng.normal_matrix(m, k, 1.0);
                let b = if nt {
                    rng.normal_matrix(n, k, 1.0)
                } else {
                    rng.normal_matrix(k, n, 1.0)
                };
                (a, b, nt)
            })
            .collect();
        let flops: usize = shapes.iter().map(|&(m, k, n, _)| 2 * m * k * n).sum();
        let [seconds] = p
            .measure(name, |_, tracer| {
                tracer
                    .span(span, || {
                        for (a, b, nt) in &operands {
                            black_box(if *nt { matmul_nt(a, b) } else { matmul(a, b) });
                        }
                    })
                    .1
            })
            .medians()?;
        values.put(name, flops as f64 / seconds / 1e9);
    }
    Ok(())
}

fn tensor_guards(p: &mut Prober, rng: &mut TensorRng, values: &mut Values) -> Result<()> {
    const NS_PER_ELEM: [&str; 4] = [
        "tensor.guard_ns_per_elem.softmax",
        "tensor.guard_ns_per_elem.layernorm",
        "tensor.guard_ns_per_elem.gelu",
        "tensor.guard_ns_per_elem.residual",
    ];
    let on = OpGuard::new(true, GUARD_TOL);
    let off = OpGuard::off();
    for (rows, ratio_name) in [
        (SEQ, "tensor.guard_ratio.train"),
        (1, "tensor.guard_ratio.m1"),
    ] {
        let scores = rng.normal_matrix(rows, SEQ, 1.0);
        let hidden = rng.normal_matrix(rows, HIDDEN, 1.0);
        let other = rng.normal_matrix(rows, HIDDEN, 1.0);
        let wide = rng.normal_matrix(rows, 4 * HIDDEN, 1.0);
        let (gamma, beta) = (vec![1.0f32; HIDDEN], vec![0.0f32; HIDDEN]);
        let elems = [rows * SEQ, rows * HIDDEN, rows * 4 * HIDDEN, rows * HIDDEN];
        // Variants 0..4 are the four ops guarded, 4..8 the same unguarded.
        let rounds = p.measure::<8>(ratio_name, |i, tracer| {
            let g = if i < 4 { &on } else { &off };
            tracer
                .span("guard", || match i % 4 {
                    0 => drop(black_box(softmax_rows_checked(&scores, g))),
                    1 => drop(black_box(layer_norm_checked(
                        &hidden, &gamma, &beta, 1e-5, g,
                    ))),
                    2 => drop(black_box(gelu_matrix_checked(&wide, g))),
                    _ => drop(black_box(residual_add_checked(&hidden, &other, g))),
                })
                .1
        });
        values.put(
            ratio_name,
            rounds.per_round(|r| r[..4].iter().sum::<f64>() / r[4..].iter().sum::<f64>())?,
        );
        if rows == SEQ {
            for ((name, s), n) in NS_PER_ELEM.iter().zip(rounds.medians()?).zip(elems) {
                values.put(name, s * 1e9 / n as f64);
            }
        }
    }
    Ok(())
}

fn tensor_kv(p: &mut Prober, rng: &mut TensorRng, values: &mut Values) -> Result<()> {
    const ROWS: usize = 256;
    let head_dim = HIDDEN / HEADS;
    let row: Vec<f32> = (0..head_dim).map(|_| rng.normal()).collect();
    let rounds = p.measure("tensor.kv_push_ns_per_row", |_, tracer| {
        // A key cache of one head: 16-row blocks with two checksum tail rows.
        let mut kv = PagedKv::new(head_dim, 2, 16);
        let (_, s) = tracer.span("kv_push", || {
            for _ in 0..ROWS {
                kv.push_row(&row);
            }
        });
        black_box(kv.rows());
        s
    });
    let [seconds] = rounds.medians()?;
    values.put("tensor.kv_push_ns_per_row", seconds * 1e9 / ROWS as f64);
    Ok(())
}

// ------------------------------------------------------------------- core

fn attention_pair(rng: &mut TensorRng) -> (ProtectedAttention, ProtectedAttention) {
    let weights = AttentionWeights::random(HIDDEN, HEADS, rng);
    (
        ProtectedAttention::new(weights.clone(), ProtectionConfig::full()),
        ProtectedAttention::new(weights, ProtectionConfig::off()),
    )
}

fn core_attention(p: &mut Prober, rng: &mut TensorRng, values: &mut Values) -> Result<()> {
    let (on, off) = attention_pair(rng);
    let x = rng.normal_matrix(SEQ, HIDDEN, 1.0);
    let only = |s_as, s_cl, s_o| SectionToggles {
        s_as,
        s_cl,
        s_o,
        s_ffn: false,
    };
    let variants = [
        (&on, SectionToggles::all()),
        (&off, SectionToggles::all()),
        (&on, SectionToggles::none()),
        (&on, only(true, false, false)),
        (&on, only(false, true, false)),
        (&on, only(false, false, true)),
    ];
    let rounds = p.measure::<6>("core.attn_fwd", |i, tracer| {
        let (attn, toggles) = variants[i];
        let mut report = AbftReport::default();
        tracer
            .span("attention_forward", || {
                black_box(api::attention_forward(attn, &x, toggles, &mut report));
            })
            .1
    });
    let [full, unprotected, ..] = rounds.medians()?;
    values.put("core.attn_fwd_ms.on", full * 1e3);
    values.put("core.attn_fwd_ms.off", unprotected * 1e3);
    values.put("core.attn_fwd_ratio", rounds.per_round(|r| r[0] / r[1])?);
    values.put(
        "core.section_ratio.s_as",
        rounds.per_round(|r| r[3] / r[2])?,
    );
    values.put(
        "core.section_ratio.s_cl",
        rounds.per_round(|r| r[4] / r[2])?,
    );
    values.put("core.section_ratio.s_o", rounds.per_round(|r| r[5] / r[2])?);
    Ok(())
}

fn core_decode(p: &mut Prober, rng: &mut TensorRng, values: &mut Values) -> Result<()> {
    let (on, off) = attention_pair(rng);
    let x = rng.normal_matrix(1, HIDDEN, 1.0);
    for (ctx, ratio_name) in [
        (32, "core.decode_step_ratio.ctx32"),
        (224, "core.decode_step_ratio.ctx224"),
    ] {
        let k = rng.normal_matrix(ctx, HIDDEN, 1.0);
        let v = rng.normal_matrix(ctx, HIDDEN, 1.0);
        let rounds = p.measure::<2>(ratio_name, |i, tracer| {
            let attn = if i == 0 { &on } else { &off };
            let mut cache = AttnKvCache::for_attention(attn);
            cache.seed(&k, &v);
            let mut report = AbftReport::default();
            let (_, s) = tracer.span("attention_decode_step", || {
                for _ in 0..STEPS {
                    black_box(api::attention_decode_step(
                        attn,
                        &x,
                        &mut cache,
                        &mut report,
                    ));
                }
            });
            s / STEPS as f64
        });
        values.put(ratio_name, rounds.per_round(|r| r[0] / r[1])?);
        if ctx == 224 {
            let [on_s, off_s] = rounds.medians()?;
            values.put("core.decode_step_us.on", on_s * 1e6);
            values.put("core.decode_step_us.off", off_s * 1e6);
        }
    }
    Ok(())
}

fn core_correct(p: &mut Prober, rng: &mut TensorRng, values: &mut Values) -> Result<()> {
    let data = rng.normal_matrix(SEQ, SEQ, 1.0);
    let cfg = AbftConfig::default();
    let rounds = p.measure("core.correct_us", |i, tracer| {
        let mut m = CheckedMatrix::encode_both(&data, Strategy::Fused);
        if i == 0 {
            m.set(3, 5, f32::INFINITY);
        } else {
            for c in 0..SEQ {
                m.set(3, c, f32::INFINITY);
            }
        }
        let (summary, s) = tracer.span("full_correct", || full_correct(&mut m, &cfg));
        black_box(summary.total_fixes());
        s
    });
    let [cell_s, row_s] = rounds.medians()?;
    values.put("core.correct_us.0d", cell_s * 1e6);
    values.put("core.correct_us.1d", row_s * 1e6);
    Ok(())
}

// ---------------------------------------------------------- model, infer

fn model_and_infer(p: &mut Prober, scale: &Scale, seed: u64, values: &mut Values) -> Result<()> {
    let cfg = &scale.lm;
    let mut inputs = Inputs::new(seed);
    let prompt = inputs.tokens(scale.decode_prompt, cfg.vocab);
    let short = inputs.tokens(8, cfg.vocab);
    let long = inputs.tokens(cfg.max_seq / 4, cfg.vocab);
    let models = [
        api::build_lm(cfg, ProtectionConfig::full()),
        api::build_lm(cfg, ProtectionConfig::off()),
    ];
    let toggles = SectionToggles::all();

    let rounds = p.measure("model.prefill_ms", |i, tracer| {
        let mut state = models[i].new_decode_state();
        let mut report = AbftReport::default();
        tracer
            .span("prefill", || {
                black_box(models[i].prefill(&prompt, &mut state, toggles, &mut report));
            })
            .1
    });
    let [on_s, off_s] = rounds.medians()?;
    values.put("model.prefill_ms.on", on_s * 1e3);
    values.put("model.prefill_ms.off", off_s * 1e3);

    // The model's decode step and the engine's step around it, stepped in
    // one round-robin so that their difference is free of drift.
    let mut engines = [
        api::build_engine(cfg, ProtectionConfig::full()),
        api::build_engine(cfg, ProtectionConfig::off()),
    ];
    let rounds = p.measure::<4>("decode_step_us", |i, tracer| {
        let seconds = if i < 2 {
            let mut state = models[i].new_decode_state();
            let mut report = AbftReport::default();
            models[i].prefill(&prompt, &mut state, toggles, &mut report);
            tracer
                .span("decode_step", || {
                    for &token in &prompt[..STEPS] {
                        black_box(models[i].decode_step(
                            token,
                            &mut state,
                            toggles,
                            None,
                            &mut report,
                        ));
                    }
                })
                .1
        } else {
            let engine = &mut engines[i - 2];
            let mut session = engine.open_session(&prompt, 0);
            tracer
                .span("step", || {
                    for _ in 0..STEPS {
                        black_box(engine.step(&mut session, Sampling::Greedy));
                    }
                })
                .1
        };
        seconds / STEPS as f64
    });
    let [model_on_s, model_off_s, engine_on_s, engine_off_s] = rounds.medians()?;
    values.put("model.decode_step_us.on", model_on_s * 1e6);
    values.put("model.decode_step_us.off", model_off_s * 1e6);
    values.put("infer.step_us.on", engine_on_s * 1e6);
    values.put("infer.step_us.off", engine_off_s * 1e6);
    // Sampling, policy and bookkeeping: the engine step beyond the model's.
    values.put("infer.self_us", rounds.per_round(|r| r[2] - r[0])? * 1e6);

    let engine = &mut engines[0];
    let rounds = p.measure("infer.batch_step_us_per_session", |i, tracer| {
        let width = if i == 0 { 1 } else { 6 };
        let mut sessions: Vec<_> = (0..width)
            .map(|s| engine.open_session(&short, s as u64))
            .collect();
        let (_, s) = tracer.span("step_batch_mixed", || {
            for _ in 0..STEPS {
                let mut items: Vec<_> = sessions.iter_mut().map(|s| (s, StepOp::Gen)).collect();
                black_box(engine.step_batch_mixed(&mut items, Sampling::Greedy));
            }
        });
        s / (STEPS * width) as f64
    });
    let [b1_s, b6_s] = rounds.medians()?;
    values.put("infer.batch_step_us_per_session.b1", b1_s * 1e6);
    values.put("infer.batch_step_us_per_session.b6", b6_s * 1e6);

    let rounds = p.measure("infer.park_us", |i, tracer| {
        let mut session = engine.open_session(&long, 0);
        if i == 0 {
            tracer
                .span("park_session", || engine.park_session(&mut session))
                .1
        } else {
            engine.park_session(&mut session);
            tracer
                .span("unpark_session", || engine.unpark_session(&mut session))
                .1
        }
    });
    let [park_s, unpark_s] = rounds.medians()?;
    values.put("infer.park_us", park_s * 1e6);
    values.put("infer.unpark_us", unpark_s * 1e6);
    Ok(())
}

// ------------------------------------------------------------------ serve

/// The gateway against a serial engine on the same requests, alternated in
/// blocks of eight: generated tokens per busy second of each. Throughputs
/// over whole blocks, not percentiles.
fn gateway_over_serial(
    p: &mut Prober,
    scale: &Scale,
    seed: u64,
    values: &mut Values,
) -> Result<()> {
    const BLOCK: usize = 8;
    const MIN_BLOCKS: usize = 2;
    let cfg = &scale.lm;
    let mut inputs = Inputs::new(seed);
    let mut gateway = api::build_gateway(cfg, ProtectionConfig::full(), scale.gateway(usize::MAX));
    let mut serial = api::build_engine(cfg, ProtectionConfig::full());
    let (mut gateway_s, mut serial_s, mut tokens) = (0.0, 0.0, 0usize);
    let mut blocks = 0usize;
    let t0 = Instant::now();
    while t0.elapsed() < p.slice || blocks < MIN_BLOCKS {
        let prompts = inputs.uniform_block(scale.open_prompt);
        let news = inputs.uniform_block(scale.open_new);
        let requests: Vec<Request> = prompts
            .iter()
            .zip(&news)
            .take(BLOCK)
            .enumerate()
            .map(|(i, (&prompt_len, &max_new))| Request {
                prompt: inputs.tokens(prompt_len, cfg.vocab),
                max_new,
                seed: seed.wrapping_add((blocks * BLOCK + i) as u64),
            })
            .collect();
        p.calls += 1;
        p.tracer.begin_probe_call(p.calls, blocks < TRACED_CALLS);
        let (served, s) = p.tracer.span("gateway_block", || {
            for r in &requests {
                gateway.submit(r.clone()).expect("queue holds one block");
            }
            let mut served = 0usize;
            while gateway.queue_len() + gateway.live_len() > 0 {
                gateway.tick();
                served += gateway
                    .drain_completions()
                    .iter()
                    .map(|c| c.generated().len())
                    .sum::<usize>();
            }
            served
        });
        gateway_s += s;
        let (generated, s) = p.tracer.span("serial_block", || {
            requests
                .iter()
                .map(|r| {
                    let mut session = serial.open_session(&r.prompt, r.seed);
                    serial.generate(&mut session, r.max_new, SAMPLING).len()
                })
                .sum::<usize>()
        });
        serial_s += s;
        assert_eq!(
            served, generated,
            "gateway and serial engine generate the same budget"
        );
        tokens += generated;
        blocks += 1;
    }
    values.put(
        "serve.gateway_over_serial",
        (tokens as f64 / gateway_s) / (tokens as f64 / serial_s),
    );
    Ok(())
}
