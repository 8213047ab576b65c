//! # attn-model
//!
//! Miniature transformer LLM training stack: the substrate standing in for
//! the paper's PyTorch + HuggingFace setup (§5.1).
//!
//! * [`param`] / [`optim`] — parameters with gradients and AdamW.
//! * [`linear`], [`embedding`], [`layernorm`], [`ffn`] — layers with
//!   hand-written backprop, each finite-difference-tested. Every layer has
//!   one stateless `forward(&self, …)` and one `backward` over the [`tape`]
//!   its caller builds by move; protection is a `ProtectionConfig` /
//!   `OpGuard` value passed in, never a different method.
//! * [`attn_layer`] — multi-head attention wrapping the ATTNChecker
//!   protected forward, plus its backward pass.
//! * [`block`] — pre-LN / post-LN transformer blocks, one pipeline.
//! * [`model`] — the four studied architectures (BERT, RoBERTa, GPT-2,
//!   GPT-Neo) as sequence classifiers, with fault-injection plumbing.
//! * [`data`] — a synthetic MRPC-style paraphrase corpus.
//! * [`trainer`] — fine-tuning loop with non-trainable-state detection and
//!   attention/step timing (Figs 6, 7, 11).
//! * [`decode`] — KV-cached serving front-end for the causal
//!   architectures: one `extend` by m ≥ 1 tokens — the training forward
//!   over the session's caches — serves prefill and decode.
//! * [`flops`] — paper-scale flop accounting behind Table 3.

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub mod attn_layer;
pub mod block;
pub mod data;
pub mod decode;
pub mod embedding;
pub mod ffn;
pub mod flops;
pub mod layernorm;
pub mod linear;
pub mod model;
pub mod optim;
pub mod param;
pub mod tape;
pub mod trainer;

pub use data::{Example, SyntheticMrpc};
pub use decode::DecodeState;
pub use model::{cross_entropy, InjectionSpec, ModelArch, ModelConfig, TransformerModel};
pub use optim::AdamW;
pub use param::{Grads, HasParams, Param};
pub use tape::ExampleTape;
pub use trainer::{StepOutcome, Trainer};
