//! The decode/full-forward parity contract, pinned through the public API:
//! a KV-cached `decode_step` sequence is **bit-identical** to re-running
//! the full protected forward over the grown prefix — at any prefill
//! split, at any engine worker count, and after an injected extreme value
//! in any decode-time GEMM has been detected and exactly corrected.

use attn_fault::FaultKind;
use attn_infer::{DecodeEngine, DecodeSession, Sampling};
use attn_model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::attention::{AttnOp, SectionToggles};
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;

fn lm_config() -> ModelConfig {
    let mut cfg = ModelConfig::gpt2();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.vocab = 48;
    cfg.num_classes = 48;
    cfg.max_seq = 144;
    cfg
}

fn lm_model(protection: ProtectionConfig) -> TransformerModel {
    let mut rng = TensorRng::seed_from(2025);
    TransformerModel::new(lm_config(), protection, &mut rng)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn decode_is_bit_identical_to_full_forward_at_several_prefix_lengths() {
    let m = lm_model(ProtectionConfig::full());
    // The last case decodes past `KC` = 128 cached tokens — `ap·V` flushes a
    // second partial, the score row spans nine 16-row K blocks — the context
    // lengths the benchmark runs at, reached by no other parity case.
    for (prefill, len) in [(1usize, 12usize), (3, 12), (6, 12), (10, 12), (8, 142)] {
        let tokens: Vec<usize> = (0..len).map(|i| (i * 29 + 7) % 48).collect();
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let _ = m.prefill(
            &tokens[..prefill],
            &mut state,
            SectionToggles::all(),
            &mut report,
        );
        for t in prefill..tokens.len() {
            let dec = m.decode_step(
                tokens[t],
                &mut state,
                SectionToggles::all(),
                None,
                &mut report,
            );
            let mut r = AbftReport::default();
            let (full, _) = m.forward(&tokens[..=t], SectionToggles::all(), None, &mut r);
            assert_eq!(
                bits(&dec),
                bits(&full),
                "prefill={prefill} t={t}: decode logits diverged from full forward"
            );
        }
        assert!(report.is_quiet(), "fault-free decode must be quiet");
    }
}

#[test]
fn batched_sessions_are_bit_identical_at_any_worker_count() {
    let prompts: [&[usize]; 5] = [&[1, 2, 3], &[40, 4], &[9, 8, 7, 6, 5], &[17], &[30, 31]];
    let run = |workers: usize| {
        let mut engine = DecodeEngine::new(lm_model(ProtectionConfig::full()));
        engine.set_parallelism(workers);
        let mut sessions: Vec<DecodeSession> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| engine.open_session(p, i as u64))
            .collect();
        let mut steps = Vec::new();
        for _ in 0..7 {
            steps.push(engine.step_batch(&mut sessions, Sampling::Temperature(0.7)));
        }
        let tails: Vec<Vec<u32>> = sessions.iter().map(|s| bits(s.logits())).collect();
        let reports: Vec<AbftReport> = sessions.iter().map(|s| s.report.clone()).collect();
        (steps, tails, reports)
    };
    let reference = run(1);
    for workers in [2, 4, 7] {
        assert_eq!(run(workers), reference, "worker count {workers} diverged");
    }
}

#[test]
fn injected_extreme_in_each_decode_gemm_is_exactly_corrected() {
    let m = lm_model(ProtectionConfig::full());
    let tokens: Vec<usize> = (0..9).map(|i| (i * 13 + 5) % 48).collect();
    let prefill = 4usize;

    // Fault-free reference logits for every decoded position.
    let mut clean: Vec<Vec<u32>> = Vec::new();
    {
        let mut state = m.new_decode_state();
        let mut r = AbftReport::default();
        let _ = m.prefill(
            &tokens[..prefill],
            &mut state,
            SectionToggles::all(),
            &mut r,
        );
        for &tok in &tokens[prefill..] {
            let l = m.decode_step(tok, &mut state, SectionToggles::all(), None, &mut r);
            clean.push(bits(&l));
        }
    }

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
    for op in SITES {
        for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
            let mut state = m.new_decode_state();
            let mut report = AbftReport::default();
            let _ = m.prefill(
                &tokens[..prefill],
                &mut state,
                SectionToggles::all(),
                &mut report,
            );
            let spec = InjectionSpec {
                layer: 1,
                op,
                head: 1,
                row: 0,
                col: 9,
                kind,
            };
            for (idx, t) in (prefill..tokens.len()).enumerate() {
                // Strike mid-generation, with a grown cache behind it.
                let inject = (idx == 2).then_some(&spec);
                let l = m.decode_step(
                    tokens[t],
                    &mut state,
                    SectionToggles::all(),
                    inject,
                    &mut report,
                );
                assert_eq!(
                    bits(&l),
                    clean[idx],
                    "{op:?}/{kind:?} step {idx}: corrected decode must match fault-free bits"
                );
            }
            assert!(
                report.correction_count() > 0,
                "{op:?}/{kind:?}: no corrections recorded"
            );
            assert_eq!(report.unrecovered, 0, "{op:?}/{kind:?}");
        }
    }
}

#[test]
fn unprotected_decode_fault_reaches_the_logits() {
    let m = lm_model(ProtectionConfig::off());
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
        op: AttnOp::Q,
        head: 0,
        row: 0,
        col: 3,
        kind: FaultKind::NaN,
    };
    let logits = m.decode_step(
        tokens[3],
        &mut state,
        SectionToggles::none(),
        Some(&spec),
        &mut report,
    );
    assert!(!logits.all_finite());
    assert_eq!(report.correction_count(), 0);
}

#[test]
fn facade_reexports_the_inference_stack() {
    // The workspace façade exposes the serving crate like the others.
    use attnchecker_repro::infer::Sampling as S;
    assert_eq!(S::Greedy, S::Greedy);
}
