//! # attn-serve
//!
//! A continuous-batching serving gateway over the ABFT-protected
//! [`attn_infer::DecodeEngine`]: the layer that turns per-session decode
//! steps into a served system with bounded admission, load-shedding, and
//! memory pressure handling — while keeping the stack's determinism and
//! fault-tolerance contracts intact.
//!
//! * **Admission** — a bounded FIFO queue with typed rejects
//!   ([`AdmitError`]): overload is backpressure, never a panic. Queued
//!   requests carry a TTL and are shed ([`FinishReason::ExpiredInQueue`])
//!   when starved.
//! * **Iteration-level scheduling** — each [`Gateway::tick`] runs **one**
//!   protected engine step that mixes chunked-prefill feeds and decode
//!   steps across sessions ([`attn_infer::StepOp`]); sessions drain at
//!   EOS, token budget, or position-table exhaustion.
//! * **Paged, checksummed KV** — sessions store K/V in fixed-size arena
//!   blocks with per-block checksum tails (`attn_tensor::PagedKv`); a
//!   per-step KV-row budget parks the overflow — the blocks are verified
//!   where they lie (`attnchecker::AttnKvCache::verify`) when a session
//!   leaves the schedule and again when it rejoins it.
//! * **Determinism** — a fixed arrival trace yields bit-identical token
//!   streams at any worker count and any admission interleaving.
//!
//! ```
//! use attn_model::model::{ModelConfig, TransformerModel};
//! use attn_serve::{Gateway, GatewayConfig, Request, TraceEvent};
//! use attn_tensor::rng::TensorRng;
//! use attnchecker::config::ProtectionConfig;
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut cfg = ModelConfig::gpt2();
//! cfg.hidden = 32;
//! cfg.heads = 2;
//! cfg.layers = 1;
//! cfg.vocab = 48;
//! cfg.num_classes = 48;
//! cfg.max_seq = 32;
//! let model = TransformerModel::new(cfg, ProtectionConfig::full(), &mut rng);
//!
//! let mut gw = Gateway::new(model, GatewayConfig::default());
//! let out = gw.run_trace(&[TraceEvent {
//!     at_tick: 0,
//!     request: Request { prompt: vec![3, 11, 7], max_new: 4, seed: 1 },
//! }]);
//! assert_eq!(out.completions[0].generated().len(), 4);
//! assert!(out.completions[0].report.is_quiet());
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]
// No-panic serving: no panic construct in non-test code of this crate.
// `assert!` stays legal for caller-contract checks; a vouched-for index
// carries an `#[expect(clippy::indexing_slicing, reason = …)]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
#![forbid(unsafe_code)]

pub mod gateway;
pub mod request;

pub use gateway::{Gateway, GatewayConfig, GatewayStats};
pub use request::{
    AdmitError, Completion, FinishReason, Request, RequestId, TraceEvent, TraceOutcome,
};
