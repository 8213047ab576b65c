//! The Fig 6 invariant as an executable test: training under per-step
//! fault injection with ATTNChecker produces the *same* parameter
//! trajectory as fault-free training, because every extreme value is
//! corrected back to its original bits (up to reconstruction round-off).

use attn_fault::FaultKind;
use attn_model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attn_model::{cross_entropy, Example, Grads, HasParams, SyntheticMrpc, Trainer};
use attn_tensor::rng::TensorRng;
use attn_tensor::OpGuard;
use attnchecker::attention::{AttnOp, SectionToggles};
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;

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

#[test]
fn faulty_protected_trajectory_matches_fault_free() {
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 1);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();

    let mut clean = build(&config, ProtectionConfig::off(), 77);
    let mut protected = build(&config, ProtectionConfig::full(), 77);

    let mut rng = TensorRng::seed_from(888);
    let sites = AttnOp::STUDY;
    let kinds = [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf];
    for step in 0..10 {
        let co = clean.train_step(&batch);
        let spec = InjectionSpec {
            layer: rng.index(config.layers),
            op: sites[rng.index(sites.len())],
            head: rng.index(config.heads),
            row: rng.index(1 << 12),
            col: rng.index(1 << 12),
            kind: kinds[rng.index(kinds.len())],
        };
        let po = protected.train_step_injected(&batch, Some((step % 4, spec)));
        assert!(!po.non_trainable);
        assert!(
            (co.loss - po.loss).abs() < 5e-3,
            "step {step}: loss diverged {} vs {}",
            co.loss,
            po.loss
        );
    }

    // Parameter trajectories stay together.
    let mut clean_params = Vec::new();
    clean
        .model
        .visit_params(&mut |p| clean_params.push(p.value.clone()));
    let mut prot_params = Vec::new();
    protected
        .model
        .visit_params(&mut |p| prot_params.push(p.value.clone()));
    for (a, b) in clean_params.iter().zip(&prot_params) {
        assert!(
            a.approx_eq(b, 1e-2, 1e-3),
            "parameters diverged after 10 faulty-but-protected steps"
        );
    }
}

#[test]
fn unprotected_run_with_the_same_faults_diverges() {
    // Control experiment: the same fault schedule without protection must
    // produce a different (usually broken) trajectory — otherwise the
    // parity test above would be vacuous.
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 1);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let mut unprotected = build(&config, ProtectionConfig::off(), 77);
    let spec = InjectionSpec {
        layer: 0,
        op: AttnOp::Q,
        head: 0,
        row: 3,
        col: 5,
        kind: FaultKind::NaN,
    };
    let out = unprotected.train_step_injected(&batch, Some((1, spec)));
    assert!(
        out.non_trainable,
        "NaN without protection must break training"
    );
}

#[test]
fn frequency_gated_protection_still_converges_cleanly() {
    // At f = 0.5 the unchecked executions carry no faults here, so training
    // must be identical to fault-free training (gates only skip detection).
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 2);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let mut clean = build(&config, ProtectionConfig::off(), 31);
    let mut gated = build(
        &config,
        ProtectionConfig::with_frequencies(0.5, 0.5, 0.5),
        31,
    );
    for _ in 0..6 {
        let a = clean.train_step(&batch);
        let b = gated.train_step(&batch);
        assert!((a.loss - b.loss).abs() < 1e-4);
    }
}

/// The op guard a `Ctx` opens under `protection`.
fn ctx_guard(protection: &ProtectionConfig) -> OpGuard {
    OpGuard::new(!protection.is_off(), protection.abft.detect_tol)
}

/// The reduction a training step must equal: every item forwards and
/// backwards into a fresh `Grads`, all buffers fold into one accumulator in
/// batch order, then one `AdamW::step` consumes it under the step's guard. Valid for
/// `full()` and `off()` protection, whose sections are all on or all off
/// at every step.
fn reference_step(
    tr: &mut Trainer,
    batch: &[&Example],
    inject: Option<(usize, InjectionSpec)>,
) -> f32 {
    let protection = *tr.model.protection();
    let toggles = if protection.is_off() {
        SectionToggles::none()
    } else {
        SectionToggles::all()
    };
    let inv = 1.0 / batch.len() as f32;
    let mut buffers = Vec::new();
    let mut loss_sum = 0.0f32;
    for (bi, ex) in batch.iter().enumerate() {
        let spec = inject.filter(|(target, _)| *target == bi).map(|(_, s)| s);
        let g = ctx_guard(&protection);
        let (logits, tape) = tr.model.forward(
            &ex.tokens,
            toggles,
            spec.as_ref(),
            &mut AbftReport::default(),
        );
        let (loss, dlogits) = cross_entropy(&logits, ex.label, &g);
        let mut grads = Grads::new();
        tr.model
            .backward(&dlogits.scaled(inv), &tape, &mut grads, &g);
        buffers.push(grads);
        loss_sum += loss;
    }
    let mut acc = Grads::new();
    for mut grads in buffers {
        grads.merge_into(&mut acc);
    }
    tr.optim.step(&mut tr.model, &acc, &ctx_guard(&protection));
    loss_sum * inv
}

/// Every bit of the state a step leaves: the value of every parameter and
/// both of its moments (no gradient outlives a step).
fn state_bits(tr: &mut Trainer) -> Vec<u32> {
    let mut out = Vec::new();
    tr.model
        .visit_params(&mut |p| out.extend(p.value.data().iter().map(|x| x.to_bits())));
    for slot in tr.optim.slots() {
        for mat in [&slot.m, &slot.v] {
            out.extend(mat.data().iter().map(|x| x.to_bits()));
        }
    }
    out
}

#[test]
fn train_step_equals_the_reference_reduction_at_any_parallelism() {
    let config = tiny();
    let ds = SyntheticMrpc::generate(16, config.vocab, 16, 5);
    let batch: Vec<_> = ds.examples.iter().take(8).collect();
    let injected = |step: usize| {
        let spec = InjectionSpec {
            layer: step % config.layers,
            op: AttnOp::STUDY[step % AttnOp::STUDY.len()],
            head: 1,
            row: 3,
            col: 5,
            kind: FaultKind::Inf,
        };
        // Item 7 sits in the ragged last wave at parallelism 3.
        Some(([7, 0, 4][step % 3], spec))
    };
    let cases: [(ProtectionConfig, bool); 3] = [
        (ProtectionConfig::full(), false),
        (ProtectionConfig::off(), false),
        (ProtectionConfig::full(), true),
    ];
    for workers in [1, 2, 3] {
        for (protection, inject) in cases {
            let mut tr = build(&config, protection, 77);
            tr.set_parallelism(workers);
            let mut reference = build(&config, protection, 77);
            for step in 0..3 {
                let spec = if inject { injected(step) } else { None };
                let out = tr.train_step_injected(&batch, spec);
                let want = reference_step(&mut reference, &batch, spec);
                if inject {
                    assert!(out.report.detections > 0, "step {step}: the fault missed");
                }
                assert_eq!(
                    out.loss.to_bits(),
                    want.to_bits(),
                    "workers {workers}, inject {inject}, step {step}: loss bits"
                );
            }
            assert!(
                state_bits(&mut tr) == state_bits(&mut reference),
                "workers {workers}, protection off {}, inject {inject}: \
                 parameter or moment bits diverged from the reference",
                protection.is_off()
            );
        }
    }
}
