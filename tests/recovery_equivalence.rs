//! Recovery-path equivalence (the semantics behind Fig 11): after one
//! faulty step, ATTNChecker's in-place correction and the checkpoint/
//! restore baseline must land the model in the same post-step state — they
//! are alternative implementations of "the step happened as if fault-free".

use attn_ckpt::{read_snapshot, write_snapshot, CheckpointManager};
use attn_fault::FaultKind;
use attn_model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attn_model::{AdamW, HasParams, SyntheticMrpc, Trainer};
use attn_tensor::rng::TensorRng;
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;
use std::io::Cursor;

fn build(protection: attnchecker::config::ProtectionConfig, seed: u64) -> (Trainer, ModelConfig) {
    let mut config = ModelConfig::roberta();
    config.hidden = 32;
    config.heads = 2;
    config.layers = 2;
    let mut rng = TensorRng::seed_from(seed);
    (
        Trainer::new(
            TransformerModel::new(config.clone(), protection, &mut rng),
            1e-3,
        ),
        config,
    )
}

fn params_of(trainer: &mut Trainer) -> Vec<attn_tensor::Matrix> {
    let mut v = Vec::new();
    trainer.model.visit_params(&mut |p| v.push(p.value.clone()));
    v
}

#[test]
fn abft_correction_and_cr_replay_reach_the_same_state() {
    let (mut abft_trainer, config) = build(ProtectionConfig::full(), 9);
    let (mut cr_trainer, _) = build(ProtectionConfig::off(), 9);
    let ds = SyntheticMrpc::generate(8, config.vocab, 16, 4);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();

    // Path A: protected step with a fault — corrected inline.
    let spec = InjectionSpec {
        layer: 1,
        op: AttnOp::K,
        head: 1,
        row: 6,
        col: 9,
        kind: FaultKind::Inf,
    };
    let out = abft_trainer.train_step_injected(&batch, Some((2, spec)));
    assert!(!out.non_trainable);
    assert!(out.report.correction_count() > 0);

    // Path B: CR — pre-step checkpoint, (the faulty step is discarded),
    // restore, replay cleanly.
    let mut snap = Vec::new();
    write_snapshot(&mut cr_trainer.model, &cr_trainer.optim, &mut snap).expect("snapshot");
    let broken = cr_trainer.train_step_injected(&batch, Some((2, spec)));
    assert!(
        broken.non_trainable,
        "unprotected fault must break the step"
    );
    read_snapshot(
        &mut cr_trainer.model,
        &mut cr_trainer.optim,
        &mut Cursor::new(&snap),
    )
    .expect("restore");
    let replay = cr_trainer.train_step(&batch);
    assert!(!replay.non_trainable);

    // Both paths performed "one clean step" — states must agree.
    assert!((out.loss - replay.loss).abs() < 5e-3);
    for (a, b) in params_of(&mut abft_trainer)
        .iter()
        .zip(&params_of(&mut cr_trainer))
    {
        assert!(a.approx_eq(b, 1e-2, 1e-3), "post-recovery states diverged");
    }
}

#[test]
fn checkpoint_manager_roundtrip_through_disk_matches_memory_snapshot() {
    let (mut trainer, config) = build(ProtectionConfig::off(), 21);
    let ds = SyntheticMrpc::generate(8, config.vocab, 16, 6);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let _ = trainer.train_step(&batch);

    let mut mem = Vec::new();
    write_snapshot(&mut trainer.model, &trainer.optim, &mut mem).expect("snapshot");

    let dir = std::env::temp_dir().join(format!("attnchk-it-{}", std::process::id()));
    let mut mgr = CheckpointManager::new(&dir).expect("dir");
    let (_, bytes, _) = mgr.save(&mut trainer).expect("save");
    assert_eq!(bytes, mem.len(), "disk and memory snapshots must agree");

    // Train further then restore: state returns to the snapshot.
    let _ = trainer.train_step(&batch);
    let before_restore = params_of(&mut trainer);
    mgr.load_last(&mut trainer).expect("load");
    let after_restore = params_of(&mut trainer);
    let mut reference = trainer.model.clone();
    let mut ref_optim = AdamW::new(trainer.optim.lr);
    let t =
        read_snapshot(&mut reference, &mut ref_optim, &mut Cursor::new(&mem)).expect("mem restore");
    assert_eq!(t, trainer.optim.t);
    assert_ne!(before_restore, after_restore, "restore must change state");
    let mut ref_params = Vec::new();
    reference.visit_params(&mut |p| ref_params.push(p.value.clone()));
    assert_eq!(after_restore, ref_params);
    let _ = std::fs::remove_dir_all(&dir);
}
