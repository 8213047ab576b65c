//! # attn_bench
//!
//! Experiment harness for the reproduction: shared setup, timing, and
//! table-formatting utilities used by the per-table/per-figure regeneration
//! binaries (`src/bin/*.rs`). Speed numbers are not measured here: they come
//! from the twin-interleaved benchmark in `benchmark/` (`BENCHMARK.json`).
//!
//! Every binary prints the corresponding paper artefact in a comparable
//! textual form:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table2_propagation` | Table 2 — error propagation patterns |
//! | `table3_gemm_ratio` | Table 3 — GEMM share of attention |
//! | `table4_vulnerability` | Table 4 — P(non-trainable) |
//! | `fig6_training_loss` | Fig 6 — loss, fault-free vs ATTNChecker |
//! | `fig7_overhead` | Fig 7 — overhead on 6 LLMs |
//! | `fig8_opt_ablation` | Fig 8 — optimized vs non-optimized |
//! | `fig9_encoding_throughput` | Fig 9 — encoding throughput |
//! | `fig10_adaptive_frequency` | Fig 10 — adaptive detection frequency |
//! | `fig11_recovery_overhead` | Fig 11 — CR vs ATTNChecker recovery |
//! | `fig12_scale_projection` | Fig 12 — multi-billion-parameter scale |
//! | `sec55_correction_cost` | §5.5 — correction-path overheads |
//!
//! plus `ablation_tolerance` (the detection-tolerance sweep) and
//! `bench_faults` (the taxonomy-driven fault campaign, `BENCH_faults.json`).

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]

pub mod kernels;
pub mod setup;
pub mod stepbench;
pub mod table;
pub mod timing;

pub use kernels::{measure_encode_overhead, EncodeOverhead};
pub use setup::{build_trainer, dataset_for, dataset_full_seq};
pub use stepbench::{measure_interleaved, StepTimes};
pub use table::TextTable;
pub use timing::{measure, MeasuredTime};
