//! ABFT-protected autoregressive decoding in a few lines: open a session
//! (prefill), generate with the KV cache, take a soft error mid-decode,
//! and show the checksums catching and exactly correcting it.
//!
//! Run: `cargo run --release --example protected_decode`

use attnchecker_repro::abft::attention::AttnOp;
use attnchecker_repro::abft::config::ProtectionConfig;
use attnchecker_repro::fault::FaultKind;
use attnchecker_repro::infer::{DecodeEngine, Sampling};
use attnchecker_repro::model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attnchecker_repro::tensor::rng::TensorRng;

fn main() {
    // An LM-shaped GPT-2: the classifier head spans the vocabulary, so
    // sampled ids feed straight back in as the next input token.
    let mut cfg = ModelConfig::gpt2();
    cfg.vocab = 64;
    cfg.num_classes = 64;
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.max_seq = 48;
    let mut rng = TensorRng::seed_from(7);
    let model = TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng);
    let mut engine = DecodeEngine::new(model);

    // Prefill a prompt: one `extend` over a fresh state, every prompt GEMM
    // inside the guarded sections, each K/V row verified as it is cached.
    let prompt = [3usize, 17, 42, 8];
    let mut session = engine.open_session(&prompt, 1234);
    println!("prompt: {:?}", prompt);

    // Clean reference generation (greedy is deterministic).
    let mut clean = engine.open_session(&prompt, 1234);
    let clean_tokens = engine.generate(&mut clean, 10, Sampling::Greedy);
    println!("clean decode:    {clean_tokens:?}");

    // Same generation, but a soft error strikes the appended q·Kᵀ score
    // row on the fourth decoded token. The section detects the INF via the
    // riding checksums, reconstructs, and replays the producing dot
    // product to the exact original bits — so generation is unperturbed.
    let spec = InjectionSpec {
        layer: 1,
        op: AttnOp::AS,
        head: 0,
        row: 0,
        col: 2,
        kind: FaultKind::Inf,
    };
    let mut tokens = Vec::new();
    for step in 0..10 {
        let inject = (step == 3).then_some(&spec);
        tokens.push(engine.step_injected(&mut session, Sampling::Greedy, inject));
    }
    println!("faulted decode:  {tokens:?}");
    assert_eq!(tokens, clean_tokens, "correction must be exact");

    let report = &session.report;
    println!(
        "ABFT: {} detection(s), {} correction(s), {} unrecovered over {} checked sections",
        report.detections,
        report.correction_count(),
        report.unrecovered,
        report.sections_checked,
    );
    for c in &report.corrections {
        println!(
            "  corrected {:?} head {} at ({}, {}): {} -> {}",
            c.section, c.head, c.row, c.col, c.old_value, c.new_value
        );
    }
    assert!(report.correction_count() > 0);
    assert_eq!(report.unrecovered, 0);
    println!(
        "decoded {} tokens with exact fault correction",
        tokens.len()
    );
}
