//! **Fig 8 reproduction** — ATTNChecker with vs without GPU-style
//! optimizations (batch 16).
//!
//! Every guarded product in this tree runs the fused path, so the
//! Non-OPT side is measured where the optimization acts, not by a second
//! training configuration. Three views:
//!
//! * **ATTNChecker (OPT)** — measured end to end: unprotected vs
//!   attention-only protection, interleaved training steps, reported as
//!   attention and per-step overhead;
//! * **Non-OPT vs OPT per section GEMM** — measured on the real kernels at
//!   the models' own section-entry shapes, one row per distinct shape
//!   naming the models that run it
//!   ([`attn_bench::measure_encode_overhead`]): the standalone encode
//!   (separate checksum sweep + augmented copy + bigger GEMM, what an
//!   unfused composition pays at every section entry) against the fused
//!   encode inside the GEMM's packing pass, both relative to the plain
//!   product;
//! * **A100 projection** — both columns from the analytic device model
//!   ([`attn_gpusim::abft_cost::fig8_projection`]), which adds the
//!   kernel-launch storm and tall-skinny cuBLAS traffic a CPU cannot
//!   exhibit.
//!
//! The paper measures the non-optimized variant at 62–93% attention
//! overhead vs 7–13% optimized (up to 8.6× reduction).
//!
//! Run: `cargo run --release -p attn_bench --bin fig8_opt_ablation`

use attn_bench::timing::pct;
use attn_bench::{
    build_trainer, dataset_full_seq, measure_encode_overhead, measure_interleaved, TextTable,
};
use attn_gpusim::abft_cost::{fig8_projection, AbftWorkload};
use attn_gpusim::GpuModel;
use attn_model::model::ModelConfig;
use attn_model::Example;
use attnchecker::config::ProtectionConfig;

const BATCH: usize = 16;
const WARMUP: usize = 1;
const STEPS: usize = 11;
const ENCODE_TRIALS: usize = 101;

/// A GEMM shape `m × k × n`.
type Shape = (usize, usize, usize);

fn main() {
    println!("== Fig 8: overhead with and without the §4.6 optimizations (batch {BATCH}) ==\n");
    let mut opt_table = TextTable::new(&["Model", "attn OPT overhead", "step OPT overhead"]);
    // Distinct (section GEMM, shape) pairs, each with the models that run it.
    let mut shapes: Vec<(&str, Shape, Vec<String>)> = Vec::new();
    for config in ModelConfig::paper_four() {
        let config = config.scaled_for_timing();
        let ds = dataset_full_seq(&config, BATCH, 13);
        let batch: Vec<&Example> = ds.examples.iter().collect();
        // Attention-only scope, so the columns stay comparable with the
        // paper's measurement (S_FFN is the end-to-end extension and is
        // reported separately by fig7_overhead).
        let mut off = build_trainer(&config, ProtectionConfig::off(), 42);
        let mut fus = build_trainer(&config, ProtectionConfig::attention_only(), 42);
        let times = measure_interleaved(&mut [&mut off, &mut fus], &batch, WARMUP, STEPS);
        let (base, opt) = (times[0], times[1]);
        opt_table.row(&[
            config.name.clone(),
            pct(opt.attn_overhead_vs(&base)),
            pct(opt.step_overhead_vs(&base)),
        ]);

        // The products where a plain operand enters an attention section:
        // X·W_{Q,K} opens S_AS, AP·V re-enters S_CL after softmax.
        let (seq, hidden) = (config.max_seq, config.hidden);
        let d = hidden / config.heads;
        for (label, shape) in [
            ("X·W_{Q,K}", (seq, hidden, hidden)),
            ("AP·V", (seq, seq, d)),
        ] {
            match shapes
                .iter_mut()
                .find(|(l, s, _)| (*l, *s) == (label, shape))
            {
                Some((_, _, models)) => models.push(config.name.clone()),
                None => shapes.push((label, shape, vec![config.name.clone()])),
            }
        }
    }
    println!(
        "-- ATTNChecker (OPT), measured end to end (CPU substrate) --\n{}",
        opt_table.render()
    );

    let mut shape_table = TextTable::new(&[
        "Models",
        "section GEMM",
        "shape",
        "plain (ms)",
        "Non-OPT enc overhead",
        "OPT enc overhead",
    ]);
    for (label, (m, k, n), models) in &shapes {
        let e = measure_encode_overhead(*m, *k, *n, ENCODE_TRIALS, 8);
        shape_table.row(&[
            models.join(", "),
            label.to_string(),
            format!("{m}x{k}x{n}"),
            format!("{:.3}", e.plain_ms),
            pct(e.standalone),
            pct(e.fused),
        ]);
    }
    println!(
        "-- Non-OPT vs OPT encoding per section-entry GEMM (CPU substrate) --\n{}",
        shape_table.render()
    );

    // GPU-side projection: on the A100 the gap additionally includes the
    // kernel-launch storm and the tall-skinny cuBLAS traffic of the
    // unfused composition, which a CPU cannot exhibit.
    let gpu = GpuModel::a100_80gb();
    let (non_opt, opt) = fig8_projection(&gpu, &AbftWorkload::fig8_default());
    println!("-- A100 projection (batch 16, BERT-base dims) --");
    println!(
        "Non-OPT attention overhead: {}   OPT: {}   reduction: {:.1}x\n",
        pct(non_opt),
        pct(opt),
        non_opt / opt
    );
    println!("Paper reference: Non-OPT 62–93% vs OPT 7–13% on attention (up to 8.6×);");
    println!("Non-OPT 23–40% vs OPT 4–9% per step (up to 6.0×).");
}
