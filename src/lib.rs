//! Workspace-level façade for the ATTNChecker reproduction.
//!
//! Re-exports the member crates so the `examples/` binaries and the
//! cross-crate integration tests in `tests/` have one import root. See
//! `README.md` for the tour and `DESIGN.md` for the paper → module map.

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub use attn_ckpt as ckpt;
pub use attn_fault as fault;
pub use attn_gpusim as gpusim;
pub use attn_infer as infer;
pub use attn_model as model;
pub use attn_serve as serve;
pub use attn_tensor as tensor;
pub use attnchecker as abft;
