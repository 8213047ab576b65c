//! # attn-ckpt
//!
//! Checkpoint/restore (CR) substrate — the recovery baseline ATTNChecker is
//! compared against in the paper's Fig 11.
//!
//! CR recovery from a non-trainable state costs three phases the paper
//! charges against every faulty step: *save* (serialise model + optimizer
//! state), *load* (deserialise the last good state), and *replay*
//! (re-execute the lost training step). [`snapshot`] implements a compact
//! binary wire format, streamed both ways so that no buffer the size of a
//! snapshot exists; [`manager`] adds on-disk storage, written and read
//! through the file itself, and a restore-and-replay path with phase
//! timings.

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub mod manager;
pub mod snapshot;

pub use manager::{CheckpointManager, RecoveryTiming};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotError};
