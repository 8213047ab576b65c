//! **Fig 12 reproduction** — ATTNChecker overhead when training
//! multi-billion-parameter LLMs on a 1,024-GPU data-parallel cluster.
//!
//! Uses the analytic A100 + ring-allreduce step model (the paper likewise
//! simulates this figure). The property to reproduce: the overhead stays
//! essentially constant from 30B to 100B parameters — and, in the second
//! table, from 64 to 4,096 GPUs for the 30B model.
//!
//! Run: `cargo run --release -p attn_bench --bin fig12_scale_projection`

use attn_bench::TextTable;
use attn_gpusim::scale::{simulate_step, BigModel, ClusterConfig};
use attn_gpusim::GpuModel;

fn main() {
    println!("== Fig 12: ATTNChecker overhead at 30B/60B/100B on 1,024 GPUs ==\n");
    let gpu = GpuModel::a100_80gb();
    let cluster = ClusterConfig::paper_1024();
    let mut t = TextTable::new(&[
        "Model",
        "params (B)",
        "step (s)",
        "attention fwd (s)",
        "allreduce (s)",
        "ABFT (s)",
        "overhead",
    ]);
    let mut overheads = Vec::new();
    for m in BigModel::fig12_sizes() {
        let b = simulate_step(&gpu, &m, &cluster);
        overheads.push(b.abft_overhead());
        t.row(&[
            m.label.to_string(),
            format!("{:.1}", m.params() / 1e9),
            format!("{:.3}", b.base_step),
            format!("{:.3}", b.attention_fwd),
            format!("{:.3}", b.allreduce),
            format!("{:.4}", b.abft),
            format!("{:.2}%", 100.0 * b.abft_overhead()),
        ]);
    }
    println!("{}", t.render());
    let spread = overheads.iter().cloned().fold(f64::MIN, f64::max)
        - overheads.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "overhead spread across sizes: {:.3} percentage points (paper: 6.32%→6.34%,",
        100.0 * spread
    );
    println!("i.e. flat — the reproduced property is the scale-invariance of the ratio).");

    println!("\n== cluster-size sweep, 30B model ==\n");
    let mut t = TextTable::new(&["GPUs", "step (s)", "allreduce (s)", "overhead"]);
    for gpus in [64usize, 256, 1024, 4096] {
        let cluster = ClusterConfig {
            gpus,
            ..ClusterConfig::paper_1024()
        };
        let b = simulate_step(&gpu, &BigModel::b30(), &cluster);
        t.row(&[
            gpus.to_string(),
            format!("{:.3}", b.base_step),
            format!("{:.3}", b.allreduce),
            format!("{:.2}%", 100.0 * b.abft_overhead()),
        ]);
    }
    println!("{}", t.render());
    println!("ABFT work scales with the attention GEMMs it protects, not with the");
    println!("cluster: only the allreduce share of the step moves with the GPU count.");
}
