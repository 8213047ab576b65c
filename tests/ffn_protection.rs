//! End-to-end FFN protection: the guarded-section pipeline extended beyond
//! the paper's attention scope must detect and correct INF/NaN/near-INF
//! faults striking either FFN GEMM *in place* (no rollback), during real
//! training steps, with the loss trajectory matching the fault-free run.

use attn_fault::FaultKind;
use attn_model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attn_model::{HasParams, SyntheticMrpc, Trainer};
use attn_tensor::rng::TensorRng;
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::SectionId;

fn build(config: &ModelConfig, protection: ProtectionConfig, seed: u64) -> Trainer {
    let mut rng = TensorRng::seed_from(seed);
    Trainer::new(
        TransformerModel::new(config.clone(), protection, &mut rng),
        1e-3,
    )
}

fn tiny() -> ModelConfig {
    let mut c = ModelConfig::bert_base();
    c.hidden = 32;
    c.heads = 2;
    c.layers = 2;
    c
}

/// Nine training steps, one FFN fault each, under `protection`: every one
/// must heal in place with the fault-free loss and parameter trajectory.
fn ffn_faults_heal_with_loss_parity(protection: ProtectionConfig) {
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 1);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();

    let mut clean = build(&config, protection, 77);
    let mut faulty = build(&config, protection, 77);

    let mut rng = TensorRng::seed_from(4242);
    let kinds = [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf];
    for step in 0..9 {
        let co = clean.train_step(&batch);
        let spec = InjectionSpec {
            layer: rng.index(config.layers),
            op: AttnOp::FFN[step % 2],
            head: 0,
            row: rng.index(1 << 12),
            col: rng.index(1 << 12),
            kind: kinds[step % kinds.len()],
        };
        let po = faulty.train_step_injected(&batch, Some((step % 4, spec)));
        assert!(!po.non_trainable, "step {step}: became non-trainable");
        assert!(
            po.report
                .corrections
                .iter()
                .any(|c| c.section == SectionId::FeedForward),
            "step {step}: no S_FFN correction recorded ({})",
            po.report
        );
        assert_eq!(po.report.unrecovered, 0, "step {step}");
        // Rollback-free exact-replay correction ⇒ the corrected step is the
        // fault-free step.
        assert!(
            (co.loss - po.loss).abs() <= 1e-6,
            "step {step}: loss diverged {} vs {}",
            co.loss,
            po.loss
        );
    }

    // Parameter trajectories stay together after 9 faulty-but-corrected
    // steps (exact replay restores original bits, so divergence would mean
    // a correction fell back to approximate reconstruction somewhere).
    let mut clean_params = Vec::new();
    clean
        .model
        .visit_params(&mut |p| clean_params.push(p.value.clone()));
    let mut faulty_params = Vec::new();
    faulty
        .model
        .visit_params(&mut |p| faulty_params.push(p.value.clone()));
    for (a, b) in clean_params.iter().zip(&faulty_params) {
        assert!(
            a.approx_eq(b, 1e-6, 1e-6),
            "parameters diverged after FFN-fault-injected training"
        );
    }
}

#[test]
fn ffn_faults_corrected_in_place_with_loss_parity() {
    ffn_faults_heal_with_loss_parity(ProtectionConfig::full());
}

#[test]
fn s_ffn_alone_corrects_its_own_sites() {
    // The attention sections gated off: S_FFN's own detection point has to
    // catch both FFN GEMMs without help from a neighbouring section.
    ffn_faults_heal_with_loss_parity(
        ProtectionConfig::with_frequencies(0.0, 0.0, 0.0).ffn_frequency(1.0),
    );
}

#[test]
fn attention_only_protection_misses_ffn_faults() {
    // Control: the paper's original scope does not cover the FFN GEMMs, so
    // the same fault without S_FFN must break training — otherwise the test
    // above would be vacuous.
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 1);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let mut trainer = build(&config, ProtectionConfig::attention_only(), 77);
    let spec = InjectionSpec {
        layer: 0,
        op: AttnOp::Ffn1,
        head: 0,
        row: 3,
        col: 5,
        kind: FaultKind::NaN,
    };
    let out = trainer.train_step_injected(&batch, Some((1, spec)));
    assert!(
        out.non_trainable,
        "unguarded FFN NaN must reach the loss and break training"
    );
}

#[test]
fn ffn_frequency_gate_schedules_ffn_checks() {
    // f_ffn = 0.5: the FFN section checks on every other step while the
    // attention sections (f = 1) check on all of them.
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 1);
    let batch: Vec<_> = ds.examples.iter().take(2).collect();
    let mut trainer = build(&config, ProtectionConfig::full().ffn_frequency(0.5), 31);
    // 2 layers × 2 batch items: 4 section executions per kind per step.
    let per_step: usize = config.layers * batch.len();
    let checked: Vec<usize> = (0..4)
        .map(|_| trainer.train_step(&batch).report.sections_checked)
        .collect();
    let attn_only = 3 * per_step;
    let with_ffn = 4 * per_step;
    assert!(
        checked.iter().all(|&c| c == attn_only || c == with_ffn),
        "{checked:?}"
    );
    assert!(checked.contains(&attn_only), "{checked:?}");
    assert!(checked.contains(&with_ffn), "{checked:?}");
}
