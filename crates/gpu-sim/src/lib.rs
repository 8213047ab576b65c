//! # attn-gpusim
//!
//! Analytic performance model of an NVIDIA A100 GPU and of multi-GPU
//! data-parallel training — the substitute for the paper's hardware testbed
//! in the experiments that are *about* the hardware:
//!
//! * **Fig 9** (checksum-encoding throughput, cuBLAS vs the custom fused
//!   kernel) is bandwidth-bound, so a roofline + occupancy + launch-overhead
//!   model reproduces its shape ([`encoding`]).
//! * **Fig 12** (ABFT overhead for 30B/60B/100B-parameter models on 1,024
//!   GPUs) was itself produced by simulation in the paper ("using the same
//!   simulation methodology as existing work \[27]"); [`scale`] implements
//!   an equivalent analytic step model.
//!
//! [`device`] holds the machine constants, [`kernel`] the roofline kernel
//! cost model.

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub mod abft_cost;
pub mod device;
pub mod encoding;
pub mod kernel;
pub mod scale;

pub use device::GpuModel;
pub use kernel::{KernelCost, KernelSpec};
