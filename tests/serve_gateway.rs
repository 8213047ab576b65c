//! Cross-crate contracts of the serving gateway, pinned through the
//! workspace façade: a fixed arrival trace is bit-identical at any
//! worker count and admission shape, every request comes back exactly
//! once with its budget, and the paged KV cache's verify-on-move detects
//! at-rest damage in evicted (parked) blocks.

use attnchecker_repro::abft::config::ProtectionConfig;
use attnchecker_repro::abft::report::AbftReport;
use attnchecker_repro::infer::Sampling;
use attnchecker_repro::model::model::{ModelConfig, TransformerModel};
use attnchecker_repro::serve::{
    AdmitError, FinishReason, Gateway, GatewayConfig, Request, TraceEvent, TraceOutcome,
};
use attnchecker_repro::tensor::rng::TensorRng;

fn lm_model() -> TransformerModel {
    let mut cfg = ModelConfig::gpt2();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.vocab = 48;
    cfg.num_classes = 48;
    cfg.max_seq = 32;
    let mut rng = TensorRng::seed_from(2025);
    TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng)
}

fn trace() -> Vec<TraceEvent> {
    [
        (0u64, vec![3usize, 11, 7, 29, 5], 5usize, 1u64),
        (0, vec![40, 4, 9, 13, 2, 8], 4, 2),
        (2, vec![17, 1, 2, 3, 4, 5, 6], 6, 3),
        (5, vec![9, 9, 9, 9], 5, 4),
        (6, vec![5, 23, 2, 30, 31, 7], 4, 5),
    ]
    .into_iter()
    .map(|(at_tick, prompt, max_new, seed)| TraceEvent {
        at_tick,
        request: Request {
            prompt,
            max_new,
            seed,
        },
    })
    .collect()
}

fn run(workers: usize, max_live: usize, kv_row_budget: usize) -> TraceOutcome {
    let mut gw = Gateway::new(
        lm_model(),
        GatewayConfig {
            max_live,
            kv_row_budget,
            prefill_chunk: 2,
            sampling: Sampling::Temperature(0.9),
            workers,
            ..GatewayConfig::default()
        },
    );
    gw.run_trace(&trace())
}

#[test]
fn gateway_trace_is_bit_identical_across_workers_and_admission_shapes() {
    let base = run(1, 3, usize::MAX);
    assert_eq!(base.completions.len(), 5);
    assert!(base.rejected.is_empty());
    assert!(base
        .completions
        .iter()
        .all(|c| c.reason == FinishReason::TokenBudget && c.report.is_quiet()));

    // Worker count: the full outcome (tokens, reasons, tick timings) is
    // bit-identical.
    for workers in [2, 4] {
        assert_eq!(run(workers, 3, usize::MAX), base, "workers={workers}");
    }

    // Admission interleaving (live-set size, KV budget parking): per-
    // request token streams survive unchanged; only timings may shift.
    let tokens_of = |out: &TraceOutcome| {
        let mut v: Vec<_> = out
            .completions
            .iter()
            .map(|c| (c.id, c.tokens.clone()))
            .collect();
        v.sort();
        v
    };
    for (max_live, budget) in [(1, usize::MAX), (2, 20), (3, 14)] {
        assert_eq!(
            tokens_of(&run(1, max_live, budget)),
            tokens_of(&base),
            "max_live={max_live} budget={budget} perturbed a token stream"
        );
    }
}

#[test]
fn every_request_returns_exactly_once_with_its_budget() {
    // Seeded bursty arrivals against a queue shallow enough to shed a few.
    // The first three are fixed: `max_new: 0` with a prompt inside the
    // prefill chunk and with one fed past it, and a prompt holding id 48 on
    // a 48-word model.
    let fixed = [
        (vec![1usize, 2, 3], 0usize),
        (vec![1, 2, 3, 4, 5, 6, 7], 0),
        (vec![1, 48, 3], 4),
    ];
    let mut rng = TensorRng::seed_from(90210);
    let mut tick = 0u64;
    let trace: Vec<TraceEvent> = (0..40)
        .map(|i| {
            let (prompt, max_new) = fixed.get(i).cloned().unwrap_or_else(|| {
                tick += rng.index(3) as u64;
                let prompt = (0..2 + rng.index(8)).map(|_| rng.index(48)).collect();
                (prompt, 1 + rng.index(8))
            });
            TraceEvent {
                at_tick: tick,
                request: Request {
                    prompt,
                    max_new,
                    seed: 1000 + i as u64,
                },
            }
        })
        .collect();

    // Budget 0 keeps only the oldest session hot, so every other one is
    // parked and unparked (verify-on-move) at the extreme budget.
    for (workers, kv_row_budget) in [(1, usize::MAX), (2, usize::MAX), (1, 0), (2, 0)] {
        let cfg = GatewayConfig {
            queue_depth: 3,
            max_live: 3,
            prefill_chunk: 4,
            sampling: Sampling::Temperature(0.9),
            workers,
            kv_row_budget,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(lm_model(), cfg);
        let out = gw.run_trace(&trace);
        let ctx = format!("workers={workers} budget={kv_row_budget}");

        // Malformed input is a typed reject and the gateway keeps serving;
        // every other reject is backpressure.
        let (token, vocab) = (48, 48);
        assert_eq!(
            out.rejected[0],
            (2, AdmitError::TokenOutOfVocab { token, vocab })
        );
        let shed = &out.rejected[1..];
        assert!(!shed.is_empty(), "queue_depth 3 must shed");
        assert!(shed
            .iter()
            .all(|(_, e)| matches!(e, AdmitError::QueueFull { depth: 3 })));

        // Ids are dense over the accepted arrivals, in submission order.
        let accepted: Vec<&Request> = trace
            .iter()
            .enumerate()
            .filter(|(i, _)| out.rejected.iter().all(|(r, _)| r != i))
            .map(|(_, ev)| &ev.request)
            .collect();
        assert_eq!(out.completions.len() + out.rejected.len(), trace.len());
        let mut ids: Vec<u64> = out.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert!(ids.iter().copied().eq(0..accepted.len() as u64));

        let (mut generated, mut fed) = (0u64, 0u64);
        for c in &out.completions {
            let req = accepted[c.id as usize];
            assert_eq!(c.reason, FinishReason::TokenBudget, "request {}", c.id);
            assert_eq!(c.generated().len(), req.max_new, "request {}", c.id);
            assert_eq!(c.tokens[..c.prompt_len], req.prompt[..], "request {}", c.id);
            assert!(c.report.is_quiet(), "request {}: {:?}", c.id, c.report);
            generated += req.max_new as u64;
            fed += req.prompt.len().saturating_sub(cfg.prefill_chunk) as u64;
        }
        assert_eq!(gw.stats().generated_tokens, generated, "{ctx}");
        assert_eq!(gw.stats().fed_tokens, fed, "{ctx}");
        let parked = gw.stats().park_events;
        assert_eq!(parked, gw.stats().unpark_events, "{ctx}");
        assert_eq!(parked > 0, kv_row_budget == 0, "{ctx}: {parked} parks");
    }
}

#[test]
fn at_rest_flip_in_evicted_kv_block_is_detected_and_corrected() {
    // The verify-on-move contract behind the gateway's budget parking,
    // driven through the model layer: park a mid-decode session, corrupt
    // one element of a parked K block, and unpark — the per-block checksum
    // tails must flag and repair it.
    let m = lm_model();
    let mut state = m.new_decode_state();
    let mut report = AbftReport::default();
    let toggles = attnchecker_repro::abft::attention::SectionToggles::all();
    let _ = m.prefill(&[3, 11, 7, 29], &mut state, toggles, &mut report);
    for t in [5usize, 2, 40, 13] {
        let _ = m.decode_step(t, &mut state, toggles, None, &mut report);
    }
    assert!(report.is_quiet());

    m.park_state(&mut state, &mut report);
    assert!(state.is_parked());
    state.layer_caches_mut()[1].k_row_mut(0, 3)[5] = f32::NAN;
    m.unpark_state(&mut state, &mut report);

    assert!(report.detections >= 1, "flip must be detected: {report:?}");
    assert!(report.correction_count() >= 1, "flip must be corrected");
    assert_eq!(report.unrecovered, 0, "single flip must not be fatal");
    // The repaired state keeps decoding.
    let logits = m.decode_step(1, &mut state, toggles, None, &mut report);
    assert!(logits.all_finite());
}
