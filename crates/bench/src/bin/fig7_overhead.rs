//! **Fig 7 reproduction** — ATTNChecker overhead on six LLMs (batch 8).
//!
//! Measures, per model, the attention-mechanism time and the full
//! training-step time with and without ATTNChecker (fused strategy, all
//! sections at frequency 1). Timing uses the scaled-for-timing model
//! dimensions (width ×2, seq 64) so fixed ABFT costs amortise as they do
//! at paper scale, and interleaves the three configurations step-by-step
//! with median aggregation to cancel host drift.
//!
//! Five configurations run per model: unprotected, the paper's
//! attention-only scope (feeds the Fig 7 attention/step columns), the
//! end-to-end config that also guards the two FFN GEMMs (feeds the extra
//! FFN-overhead column), and the unprotected/attention-only pair again
//! with the trainer's data-parallel step fanning batch items over all
//! cores — the parallel columns measure the step speedup and check that
//! the ABFT overhead *ratio* is schedule-independent (per-item protection
//! work scales with the items, not with the worker count). Fused vs
//! standalone encoding is measured per GEMM shape by
//! `fig9_encoding_throughput` and `fig8_opt_ablation`, not here.
//!
//! The paper reports ≈11% overhead on the attention block and ≈7% on the
//! end-to-end step, averaged over models.
//!
//! Run: `cargo run --release -p attn-bench --bin fig7_overhead`

use attn_bench::timing::pct;
use attn_bench::{build_trainer, dataset_full_seq, measure_interleaved, TextTable};
use attn_model::model::ModelConfig;
use attn_model::Example;
use attnchecker::config::ProtectionConfig;

const BATCH: usize = 8;
const WARMUP: usize = 2;
const STEPS: usize = 13;

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Fig 7: ATTNChecker overhead on 6 LLMs (batch {BATCH}) ==\n");
    let mut attn_table = TextTable::new(&[
        "Model",
        "attn original (ms)",
        "attn ATTNChecker (ms)",
        "overhead",
    ]);
    let mut step_table = TextTable::new(&[
        "Model",
        "step original (ms)",
        "step ATTNChecker (ms)",
        "overhead",
        "FFN prot. overhead",
        "attn share of step",
    ]);
    let mut par_table = TextTable::new(&[
        "Model",
        "step seq (ms)",
        "step par (ms)",
        "speedup",
        "overhead seq",
        "overhead par",
    ]);
    let mut sum_attn = 0.0;
    let mut sum_step = 0.0;
    let mut sum_ffn = 0.0;
    let mut sum_speedup = 0.0;
    let models: Vec<ModelConfig> = ModelConfig::paper_six()
        .into_iter()
        .map(|c| c.scaled_for_timing())
        .collect();
    for config in &models {
        let ds = dataset_full_seq(config, BATCH * 2, 11);
        let batch: Vec<&Example> = ds.examples.iter().take(BATCH).collect();
        let mut off = build_trainer(config, ProtectionConfig::off(), 42);
        let mut attn_on = build_trainer(config, ProtectionConfig::attention_only(), 42);
        let mut full_on = build_trainer(config, ProtectionConfig::full(), 42);
        let mut off_par = build_trainer(config, ProtectionConfig::off(), 42);
        off_par.set_parallelism(workers);
        let mut attn_par = build_trainer(config, ProtectionConfig::attention_only(), 42);
        attn_par.set_parallelism(workers);
        let times = measure_interleaved(
            &mut [
                &mut off,
                &mut attn_on,
                &mut full_on,
                &mut off_par,
                &mut attn_par,
            ],
            &batch,
            WARMUP,
            STEPS,
        );
        let (base, prot, e2e) = (times[0], times[1], times[2]);
        let (base_par, prot_par) = (times[3], times[4]);
        let attn_ovh = prot.attn_overhead_vs(&base);
        let step_ovh = prot.step_overhead_vs(&base);
        let ffn_ovh = e2e.ffn_overhead_vs(&base);
        let speedup = base_par.step_speedup_vs(&base);
        sum_attn += attn_ovh;
        sum_step += step_ovh;
        sum_ffn += ffn_ovh;
        sum_speedup += speedup;
        attn_table.row(&[
            config.name.clone(),
            format!("{:.3}", base.attn_ms),
            format!("{:.3}", prot.attn_ms),
            pct(attn_ovh),
        ]);
        step_table.row(&[
            config.name.clone(),
            format!("{:.3}", base.step_ms),
            format!("{:.3}", prot.step_ms),
            pct(step_ovh),
            pct(ffn_ovh),
            pct(base.attn_ms / base.step_ms),
        ]);
        par_table.row(&[
            config.name.clone(),
            format!("{:.3}", base.step_ms),
            format!("{:.3}", base_par.step_ms),
            format!("{:.2}x", speedup),
            pct(step_ovh),
            pct(prot_par.step_overhead_vs(&base_par)),
        ]);
    }
    println!("-- Attention mechanism --\n{}", attn_table.render());
    println!("-- Per-step training --\n{}", step_table.render());
    println!(
        "-- Data-parallel step ({workers} workers, per-example tapes) --\n{}",
        par_table.render()
    );
    println!(
        "mean attention overhead: {}   mean step overhead: {}   mean FFN-protection overhead: {}",
        pct(sum_attn / models.len() as f64),
        pct(sum_step / models.len() as f64),
        pct(sum_ffn / models.len() as f64),
    );
    println!(
        "mean data-parallel step speedup: {:.2}x over {} workers (bit-identical training)",
        sum_speedup / models.len() as f64,
        workers,
    );
    println!("Paper reference: ~11% attention, ~7% per-step (7–16% / 5–10% per model).");
    println!("Note: per-step overhead = attention overhead × attention share of the");
    println!("step; the paper's stack is attention-heavier than this CPU substrate,");
    println!("which is why its 11% attention overhead dilutes to 7% instead of ~2%.");
    println!("The FFN column measures the end-to-end extension (S_FFN guarding both");
    println!("FFN GEMMs) on the FFN timer — protection beyond the paper's scope.");
}
