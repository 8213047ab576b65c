//! The decode/full-forward parity contract, pinned through the public API:
//! a KV-cached sequence of `extend`s is **bit-identical** to re-running
//! the full protected forward over the grown prefix — at any chunking of
//! the tokens, at any engine worker count, and after an injected extreme
//! value in any decode-time GEMM has been detected and exactly corrected.

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
    // `extend` by each chunk of the schedule, then decode to `len`. The
    // `8` case decodes past `KC` = 128 cached tokens — `ap·V` flushes a
    // second partial, the score rows span nine 16-row K blocks — the context
    // lengths the benchmark runs at; the `140` case reaches them in one
    // call, whose m > `MC` = 64 rows and `ap·V` run past `KC` at once.
    let cases: [(&[usize], usize); 9] = [
        (&[1], 12),
        (&[3], 12),
        (&[6], 12),
        (&[10], 12),
        (&[8], 142),
        (&[2, 1, 4], 12),
        (&[5, 5], 12),
        (&[1, 3, 2, 3, 1, 2], 12),
        (&[140], 142),
    ];
    for (chunks, len) in cases {
        let tokens: Vec<usize> = (0..len).map(|i| (i * 29 + 7) % 48).collect();
        let full = |n: usize| {
            let mut r = AbftReport::default();
            bits(
                &m.forward(&tokens[..n], SectionToggles::all(), None, &mut r)
                    .0,
            )
        };
        let mut state = m.new_decode_state();
        let mut report = AbftReport::default();
        let mut prefill = 0;
        for &n in chunks {
            let chunk = &tokens[prefill..prefill + n];
            let l = m.extend(chunk, &mut state, SectionToggles::all(), None, &mut report);
            prefill += n;
            assert_eq!(
                bits(&l),
                full(prefill),
                "chunks={chunks:?}: extend to {prefill}"
            );
        }
        for (t, &token) in tokens.iter().enumerate().skip(prefill) {
            let dec = m.decode_step(token, &mut state, SectionToggles::all(), None, &mut report);
            assert_eq!(
                bits(&dec),
                full(t + 1),
                "chunks={chunks:?} t={t}: decode logits diverged from full forward"
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
    // After the prefill, `(chunks, struck chunk, struck row)`: five decode
    // steps struck mid-generation, with a grown cache behind it; or a 3-row
    // `extend` struck in its last row — five buffer rows under the score
    // rows, i.e. two tail-sum passes — then two decode steps.
    let schedules: [(&[usize], usize, usize); 2] = [(&[1, 1, 1, 1, 1], 2, 0), (&[3, 1, 1], 0, 2)];
    for (chunks, strike, row) in schedules {
        // Logits after every chunk, with `inject` planted in the struck one.
        let run = |inject: Option<&InjectionSpec>, report: &mut AbftReport| {
            let mut state = m.new_decode_state();
            let _ = m.prefill(
                &tokens[..prefill],
                &mut state,
                SectionToggles::all(),
                report,
            );
            let mut pos = prefill;
            let mut logits = Vec::new();
            for (idx, &n) in chunks.iter().enumerate() {
                let inject = inject.filter(|_| idx == strike);
                let chunk = &tokens[pos..pos + n];
                let l = m.extend(chunk, &mut state, SectionToggles::all(), inject, report);
                logits.push(bits(&l));
                pos += n;
            }
            logits
        };
        // Fault-free reference logits for every decoded position.
        let clean = run(None, &mut AbftReport::default());

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
                let spec = InjectionSpec {
                    layer: 1,
                    op,
                    head: 1,
                    row,
                    col: 9,
                    kind,
                };
                let mut report = AbftReport::default();
                for (idx, l) in run(Some(&spec), &mut report).iter().enumerate() {
                    assert_eq!(
                        l, &clean[idx],
                        "{op:?}/{kind:?} {chunks:?} step {idx}: corrected decode must match fault-free bits"
                    );
                }
                assert!(
                    report.correction_count() > 0,
                    "{op:?}/{kind:?} {chunks:?}: no corrections recorded"
                );
                assert_eq!(report.unrecovered, 0, "{op:?}/{kind:?} {chunks:?}");
            }
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
