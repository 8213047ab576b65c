//! End-to-end detection/correction campaign (the paper's §5.2 claim:
//! "all errors can be detected and successfully corrected").
//!
//! Every fault kind × GEMM site × head × model architecture, injected
//! during protected training steps, must be corrected with no unrecovered
//! errors and no non-trainable state — and, the Fig 6 property at bit
//! level, leave the step's loss and every updated parameter exactly as a
//! fault-free step leaves them.

use attn_fault::FaultKind;
use attn_model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attn_model::Trainer;
use attn_model::{HasParams, SyntheticMrpc};
use attn_tensor::rng::TensorRng;
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;

fn trainer_for(config: &ModelConfig, seed: u64) -> Trainer {
    let mut rng = TensorRng::seed_from(seed);
    Trainer::new(
        TransformerModel::new(config.clone(), ProtectionConfig::full(), &mut rng),
        1e-3,
    )
}

fn small_config(mut config: ModelConfig) -> ModelConfig {
    config.hidden = 32;
    config.heads = 2;
    config.layers = 2;
    config
}

/// Every parameter value of the trainer's model, as bits.
fn param_bits(trainer: &mut Trainer) -> Vec<u32> {
    let mut bits = Vec::new();
    trainer
        .model
        .visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
    bits
}

#[test]
fn every_site_and_kind_is_corrected_across_architectures() {
    for base in ModelConfig::paper_four() {
        let config = small_config(base);
        let ds = SyntheticMrpc::generate(8, config.vocab, 16, 3);
        let batch: Vec<_> = ds.examples.iter().take(4).collect();
        // The reference: a fault-free protected step of the same trainer.
        let mut clean = trainer_for(&config, 17);
        let clean_loss = clean.train_step(&batch).loss;
        let clean_params = param_bits(&mut clean);
        let mut rng = TensorRng::seed_from(0xC0FFEE);
        for op in AttnOp::ALL.into_iter().chain(AttnOp::FFN) {
            for kind in [
                FaultKind::Inf,
                FaultKind::NegInf,
                FaultKind::NaN,
                FaultKind::NearInf,
            ] {
                for head in 0..config.heads {
                    let mut trainer = trainer_for(&config, 17);
                    let spec = InjectionSpec {
                        layer: rng.index(config.layers),
                        op,
                        head,
                        row: rng.index(1 << 12),
                        col: rng.index(1 << 12),
                        kind,
                    };
                    let cell = format!("{} / {op:?} / {kind:?} / head {head}", config.name);
                    let out = trainer.train_step_injected(&batch, Some((0, spec)));
                    assert!(!out.non_trainable, "{cell}: became non-trainable");
                    assert!(
                        out.report.correction_count() > 0,
                        "{cell}: fault was never corrected ({})",
                        out.report
                    );
                    assert_eq!(
                        out.report.unrecovered, 0,
                        "{cell}: unrecovered errors ({})",
                        out.report
                    );
                    assert_eq!(
                        out.loss.to_bits(),
                        clean_loss.to_bits(),
                        "{cell}: loss {} vs fault-free {clean_loss}",
                        out.loss
                    );
                    assert!(
                        param_bits(&mut trainer) == clean_params,
                        "{cell}: post-step parameters differ from the fault-free step"
                    );
                }
            }
        }
    }
}

#[test]
fn output_injection_is_corrected_too() {
    // AttnOp::O is outside the paper's Table 4 study set but inside S_O.
    let config = small_config(ModelConfig::bert_base());
    let ds = SyntheticMrpc::generate(8, config.vocab, 16, 3);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let mut trainer = trainer_for(&config, 5);
    let spec = InjectionSpec {
        layer: 1,
        op: AttnOp::O,
        head: 0,
        row: 7,
        col: 13,
        kind: FaultKind::NaN,
    };
    let out = trainer.train_step_injected(&batch, Some((1, spec)));
    assert!(!out.non_trainable);
    assert!(out.report.correction_count() > 0);
    assert_eq!(out.report.unrecovered, 0);
}

#[test]
fn repeated_faults_over_many_steps_never_break_training() {
    let config = small_config(ModelConfig::gpt2());
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 9);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let mut trainer = trainer_for(&config, 23);
    let mut rng = TensorRng::seed_from(555);
    let sites = AttnOp::STUDY;
    let kinds = [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf];
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for step in 0..30 {
        let spec = InjectionSpec {
            layer: rng.index(config.layers),
            op: sites[rng.index(sites.len())],
            head: rng.index(config.heads),
            row: rng.index(1 << 12),
            col: rng.index(1 << 12),
            kind: kinds[rng.index(kinds.len())],
        };
        let out = trainer.train_step_injected(&batch, Some((step % 4, spec)));
        assert!(!out.non_trainable, "step {step} became non-trainable");
        first_loss.get_or_insert(out.loss);
        last_loss = out.loss;
    }
    // Training must actually make progress despite one fault per step.
    assert!(
        last_loss < first_loss.unwrap(),
        "no learning under faults: {} -> {last_loss}",
        first_loss.unwrap()
    );
}
