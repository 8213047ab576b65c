//! Shared builders for the experiment binaries.

use attn_model::model::{ModelConfig, TransformerModel};
use attn_model::{SyntheticMrpc, Trainer};
use attn_tensor::rng::TensorRng;
use attnchecker::config::ProtectionConfig;

/// Default fine-tuning learning rate used across experiments.
pub const LR: f32 = 1e-3;

/// Build a seeded trainer for `config` under `protection`.
///
/// The same `(config, seed)` pair always yields identical initial weights,
/// so protected/unprotected comparisons start from the same state.
pub fn build_trainer(config: &ModelConfig, protection: ProtectionConfig, seed: u64) -> Trainer {
    let mut rng = TensorRng::seed_from(seed);
    let model = TransformerModel::new(config.clone(), protection, &mut rng);
    Trainer::new(model, LR)
}

/// Build the synthetic MRPC corpus sized for `config`.
pub fn dataset_for(config: &ModelConfig, n: usize, seed: u64) -> SyntheticMrpc {
    SyntheticMrpc::generate(n, config.vocab, config.max_seq.min(32), seed)
}

/// Dataset at the model's full sequence length (timing experiments).
pub fn dataset_full_seq(config: &ModelConfig, n: usize, seed: u64) -> SyntheticMrpc {
    SyntheticMrpc::generate(n, config.vocab, config.max_seq, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_weights() {
        let cfg = ModelConfig::bert_small();
        let mut a = build_trainer(&cfg, ProtectionConfig::off(), 7);
        let mut b = build_trainer(&cfg, ProtectionConfig::off(), 7);
        use attn_model::HasParams;
        let mut va = Vec::new();
        a.model.visit_params(&mut |p| va.push(p.value.clone()));
        let mut vb = Vec::new();
        b.model.visit_params(&mut |p| vb.push(p.value.clone()));
        assert_eq!(va, vb);
    }

    #[test]
    fn dataset_fits_model() {
        let cfg = ModelConfig::bert_small();
        let ds = dataset_for(&cfg, 8, 1);
        assert!(ds.examples.iter().all(|e| e.tokens.len() <= cfg.max_seq));
        assert!(ds
            .examples
            .iter()
            .all(|e| e.tokens.iter().all(|&t| t < cfg.vocab)));
    }
}
