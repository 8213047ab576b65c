//! The repository's benchmark: five workloads, each driving a protected
//! system and its unprotected twin in lock-step, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See `README.md`.

pub mod api;
pub mod cli;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod trace;
pub mod workloads;
