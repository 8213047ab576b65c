//! # attn-infer
//!
//! The serving-side counterpart of the training stack: an autoregressive
//! decoding engine whose attention steps keep riding ATTNChecker
//! checksums. Every decode-time GEMM — the Q/K/V projections, the
//! appended `q·Kᵀ` score row, `ap·V`, the output projection, and both FFN
//! GEMMs — runs inside the same guarded sections as training, with
//! exact-replay correction, over per-session KV caches whose checksum
//! borders are maintained incrementally (O(d) per appended token).
//!
//! * [`session`] — one decode stream: prompt, KV caches, its own sampling
//!   RNG and ABFT report.
//! * [`sampling`] — greedy and temperature sampling off `TensorRng`.
//! * [`engine`] — [`DecodeEngine`]: opens sessions (prefill), advances
//!   them singly or as a batch fanned over a sized rayon pool with
//!   fixed-order reduction (bit-identical results at any worker count),
//!   and owns the `ProtectionPolicy` that paces section checks across
//!   steps.

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

pub mod engine;
pub mod sampling;
pub mod session;

pub use engine::{DecodeEngine, StepOp};
pub use sampling::Sampling;
pub use session::DecodeSession;
