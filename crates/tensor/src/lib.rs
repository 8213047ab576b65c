//! # attn-tensor
//!
//! Dense `f32` linear-algebra substrate for the ATTNChecker reproduction.
//!
//! The paper's artifact runs its attention GEMMs on NVIDIA A100 GPUs through
//! cuBLAS; this crate is the CPU stand-in. It provides:
//!
//! * [`Matrix`] — an owned, row-major dense matrix.
//! * [`MatRef`] / [`MatMut`] — borrowed views over contiguous row-major
//!   storage, used by every kernel so that a whole matrix and a row prefix
//!   of one feed the same entry points without copies.
//! * Packed, cache-blocked, register-tiled GEMM kernels in [`gemm`] — including the transposed variants needed by attention
//!   (`Q·Kᵀ`) and backprop (`Aᵀ·B`), and the fused column-encoding entry
//!   points (`gemm_encode_cols_into` and its paged twin) whose encoding
//!   rides inside the packing pass ([`pack`]).
//! * The blocked accumulation-order contract in [`contract`] — the one
//!   statement of how a product element, a row checksum and a column
//!   checksum are summed, which replay and every standalone encoder call.
//! * The protection-only lane-ordered reductions in [`lanes`] (moment
//!   digests, guard-screen sums, the row-side detection prepass), each a
//!   scalar definition plus a runtime-dispatched, bit-identical AVX2 form.
//! * A thread-local scratch arena in [`workspace`] that makes the GEMM and
//!   encoding hot path allocation-free in steady state.
//! * [`PagedKv`] — fixed-size-block paged row storage for KV caches, with
//!   per-block border rows for checksum tails; the paged GEMM entries in
//!   [`gemm`] consume it without copying and without changing result bits.
//! * Neural-network primitive ops in [`ops`] (numerically-stable softmax,
//!   layer norm, GELU, bias, masking).
//! * Invariant-screened guarded variants of the non-GEMM ops in [`guard`]
//!   ([`OpGuard`], `softmax_rows_checked` & co.) — cheap invariant screens
//!   with exact recompute-from-inputs healing, since exact checksum
//!   transport stops at a nonlinearity.
//! * Named exact-float comparisons in [`float`] (`exactly_zero` & co.) —
//!   names for the deliberate sentinel tests; no lint enforces them.
//! * Deterministic RNG helpers in [`rng`] (Box–Muller normal sampling,
//!   Xavier/He initialisation).
//! * The workspace's one parallel primitive, [`par::map`]: an explicit
//!   worker count over a mutable slice, results in input order.
//!
//! Everything is deterministic given a seed, which the fault-injection
//! campaigns rely on for reproducibility.
//!
//! This is the workspace's one crate with `unsafe` (every other one is
//! `#![forbid(unsafe_code)]`), and it has three sites: the calls into the
//! AVX2 kernels in [`lanes`]' private `arch` module. The toolchain audits
//! them. rustc denies `unsafe_code` crate-wide and only `arch` allows it,
//! so an `unsafe` block anywhere else is a build error. rustc also denies
//! `unsafe_op_in_unsafe_fn`, so the body of an unsafe function is not one
//! big `unsafe` block, and clippy denies `undocumented_unsafe_blocks`, so
//! every `unsafe` block carries a `// SAFETY:` comment.

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![allow(
    clippy::disallowed_methods,
    reason = "this crate defines the raw GEMM and op entries the workspace clippy.toml \
              disallows elsewhere, and composes its guarded variants from them"
)]

pub mod contract;
pub mod error;
pub mod float;
pub mod gemm;
pub mod guard;
pub mod kv;
pub mod lanes;
pub mod matrix;
pub mod ops;
pub mod pack;
pub mod par;
pub mod rng;
pub mod view;
pub mod workspace;

pub use error::ShapeError;
pub use guard::{GuardStats, OpGuard};
pub use kv::PagedKv;
pub use matrix::Matrix;
pub use view::{MatMut, MatRef};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ShapeError>;
