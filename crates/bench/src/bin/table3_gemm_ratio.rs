//! **Table 3 reproduction** — GEMM share of the attention mechanism.
//!
//! Counts attention-mechanism flops at the published model dimensions
//! (hidden 768, 12 heads, MRPC-length sequences) and prints the share spent
//! in the six GEMMs. The paper reports 99.3%–99.7% across the four models,
//! which justifies protecting only the GEMMs.
//!
//! Run: `cargo run --release -p attn_bench --bin table3_gemm_ratio`

use attn_bench::TextTable;
use attn_model::flops::table3_rows;

fn main() {
    println!("== Table 3: GEMM workload share of the attention mechanism ==\n");
    let mut t = TextTable::new(&[
        "Model",
        "GEMM Gflop",
        "softmax Mflop",
        "other Mflop",
        "GEMM ratio",
        "paper",
    ]);
    let paper = ["99.7%", "99.5%", "99.3%", "99.7%"];
    for ((name, dims), paper_cell) in table3_rows().into_iter().zip(paper) {
        t.row(&[
            name.to_string(),
            format!("{:.3}", dims.total_gemm_flops() / 1e9),
            format!("{:.2}", dims.softmax_flops() / 1e6),
            format!("{:.2}", dims.other_flops() / 1e6),
            format!("{:.1}%", 100.0 * dims.gemm_ratio()),
            paper_cell.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Per-layer forward counts at paper-scale dims (seq 128, hidden 768, 12 heads).");
}
