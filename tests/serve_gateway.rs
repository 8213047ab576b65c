//! Cross-crate contracts of the serving gateway, pinned through the
//! workspace façade: a fixed arrival trace is bit-identical at any
//! worker count and admission shape, and the paged KV cache's
//! verify-on-move detects at-rest damage in evicted (parked) blocks.

use attnchecker_repro::abft::config::ProtectionConfig;
use attnchecker_repro::abft::report::AbftReport;
use attnchecker_repro::infer::Sampling;
use attnchecker_repro::model::model::{ModelConfig, TransformerModel};
use attnchecker_repro::serve::{
    FinishReason, Gateway, GatewayConfig, Request, TraceEvent, TraceOutcome,
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
