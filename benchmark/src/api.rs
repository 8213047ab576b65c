//! The adapter: the only file of the benchmark that names the repository's
//! crates. Everything the workloads and probes call is re-exported or
//! wrapped here, through the façade package only, so a change to the
//! repository's API is absorbed in this one file. `README.md` lists the
//! functions the benchmark relies on.

pub use attnchecker_repro::abft::attention::{
    AttentionWeights, AttnOp, ForwardOptions, ProtectedAttention, SectionToggles,
};
pub use attnchecker_repro::abft::config::{AbftConfig, ProtectionConfig, Strategy};
pub use attnchecker_repro::abft::detect::full_correct;
pub use attnchecker_repro::abft::{AbftReport, AttnKvCache, CheckedMatrix, ForwardCtx};
pub use attnchecker_repro::ckpt::{CheckpointManager, RecoveryTiming};
pub use attnchecker_repro::fault::FaultKind;
pub use attnchecker_repro::infer::{DecodeEngine, DecodeSession, Sampling, StepOp};
pub use attnchecker_repro::model::model::{InjectionSpec, ModelConfig, TransformerModel};
pub use attnchecker_repro::model::{Example, StepOutcome, SyntheticMrpc, Trainer};
pub use attnchecker_repro::serve::{
    Completion, FinishReason, Gateway, GatewayConfig, GatewayStats, Request,
};
pub use attnchecker_repro::tensor::gemm::{matmul, matmul_nt};
pub use attnchecker_repro::tensor::guard::{
    gelu_matrix_checked, layer_norm_checked, residual_add_checked, softmax_rows_checked,
};
pub use attnchecker_repro::tensor::rng::TensorRng;
pub use attnchecker_repro::tensor::workspace::thread_alloc_events;
pub use attnchecker_repro::tensor::{Matrix, OpGuard, PagedKv};

/// Weight seeds are fixed: `--seed` reaches the program only through the
/// inputs the benchmark generates.
const TRAIN_WEIGHTS_SEED: u64 = 42;
const LM_WEIGHTS_SEED: u64 = 4242;
const LEARNING_RATE: f32 = 1e-3;

/// The training model: `bert_base().scaled_for_timing()` (hidden 128, heads
/// 4, layers 2, seq 64, vocab 256, 2 classes), or the smoke shape.
pub fn train_config(smoke: bool) -> ModelConfig {
    let mut cfg = ModelConfig::bert_base().scaled_for_timing();
    if smoke {
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 1;
        cfg.max_seq = 16;
    }
    cfg
}

/// The LM-shaped decode/serve model: GPT-2 with hidden 128, heads 4, layers
/// 2, vocab 256, `num_classes = vocab`, `max_seq` 256, or the smoke shape.
pub fn lm_config(smoke: bool) -> ModelConfig {
    let mut cfg = ModelConfig::gpt2();
    if smoke {
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 1;
        cfg.vocab = 64;
        cfg.max_seq = 64;
    } else {
        cfg.hidden = 128;
        cfg.heads = 4;
        cfg.layers = 2;
        cfg.vocab = 256;
        cfg.max_seq = 256;
    }
    cfg.num_classes = cfg.vocab;
    cfg
}

/// A single-threaded trainer on the fixed training weights.
pub fn build_trainer(cfg: &ModelConfig, protection: ProtectionConfig) -> Trainer {
    let mut rng = TensorRng::seed_from(TRAIN_WEIGHTS_SEED);
    let mut trainer = Trainer::new(
        TransformerModel::new(cfg.clone(), protection, &mut rng),
        LEARNING_RATE,
    );
    trainer.set_parallelism(1);
    trainer
}

/// The LM model on the fixed serving weights.
pub fn build_lm(cfg: &ModelConfig, protection: ProtectionConfig) -> TransformerModel {
    let mut rng = TensorRng::seed_from(LM_WEIGHTS_SEED);
    TransformerModel::new(cfg.clone(), protection, &mut rng)
}

/// A single-threaded decode engine over [`build_lm`].
pub fn build_engine(cfg: &ModelConfig, protection: ProtectionConfig) -> DecodeEngine {
    let mut engine = DecodeEngine::new(build_lm(cfg, protection));
    engine.set_parallelism(1);
    engine
}

/// A gateway over [`build_lm`].
pub fn build_gateway(
    cfg: &ModelConfig,
    protection: ProtectionConfig,
    gateway: GatewayConfig,
) -> Gateway {
    Gateway::new(build_lm(cfg, protection), gateway)
}

/// `ProtectedAttention::forward` without mask or hook.
pub fn attention_forward(
    attn: &ProtectedAttention,
    x: &Matrix,
    toggles: SectionToggles,
    report: &mut AbftReport,
) -> Matrix {
    let opts = ForwardOptions {
        mask: None,
        toggles,
        hook: None,
    };
    attn.forward(x, opts, report).output
}

/// `ProtectedAttention::decode_step` without mask or hook, all sections on.
pub fn attention_decode_step(
    attn: &ProtectedAttention,
    x: &Matrix,
    cache: &mut AttnKvCache,
    report: &mut AbftReport,
) -> Matrix {
    let mut ctx = ForwardCtx {
        mask: None,
        toggles: SectionToggles::all(),
        hook: None,
        report,
    };
    attn.decode_step(x, cache, &mut ctx)
}
