//! **Fig 9 reproduction** — checksum-encoding throughput vs batch size.
//!
//! Two complementary views:
//!
//! 1. **A100 projection** (the paper's actual figure): the analytic GPU
//!    model compares the cuBLAS GEMV composition against ATTNChecker's
//!    fused encoder, in TB/s against the 2 TB/s peak-bandwidth line.
//! 2. **CPU ground truth**: the fusion claim measured on the kernels every
//!    guarded product runs — a standalone encode sweep plus augmented
//!    product vs encoding inside the GEMM's packing pass, per GEMM shape.
//!
//! Run: `cargo run --release -p attn_bench --bin fig9_encoding_throughput`

use attn_bench::timing::pct;
use attn_bench::{measure_encode_overhead, TextTable};
use attn_gpusim::encoding::{encoding_throughput_curve, FIG9_BATCHES};
use attn_gpusim::GpuModel;

fn main() {
    println!("== Fig 9: Checksum encoding throughput ==\n");
    let gpu = GpuModel::a100_80gb();
    println!(
        "-- A100 model (peak memory bandwidth: {:.0} GB/s) --",
        gpu.mem_bw_gbs
    );
    let mut t = TextTable::new(&[
        "batch",
        "cuBLAS TB/s",
        "ATTNChecker TB/s",
        "speedup",
        "BW util",
    ]);
    for p in encoding_throughput_curve(&gpu, &FIG9_BATCHES) {
        t.row(&[
            p.batch.to_string(),
            format!("{:.3}", p.cublas_tbs),
            format!("{:.3}", p.fused_tbs),
            format!("{:.1}x", p.fused_tbs / p.cublas_tbs),
            format!("{:.1}%", 100.0 * p.fused_tbs / (gpu.mem_bw_gbs / 1000.0)),
        ]);
    }
    println!("{}", t.render());
    println!("Paper reference: cuBLAS <10% of peak; ATTNChecker up to 91.4% (13×).\n");

    // The fusion claim itself, per protected GEMM: encoding as a standalone
    // sweep + augmented product vs encoding riding inside the GEMM's
    // packing pass. Overheads are relative to the unprotected product.
    println!("-- CPU ground truth: standalone encode-then-GEMM vs fused encode-in-GEMM --");
    let mut t = TextTable::new(&[
        "GEMM shape",
        "plain (ms)",
        "standalone enc overhead",
        "fused enc overhead",
    ]);
    for &(m, k, n) in &[(64, 256, 64), (128, 512, 128), (256, 256, 256)] {
        let e = measure_encode_overhead(m, k, n, 7, 3);
        t.row(&[
            format!("{m}x{k}x{n}"),
            format!("{:.3}", e.plain_ms),
            pct(e.standalone),
            pct(e.fused),
        ]);
    }
    println!("{}", t.render());
    println!("Fused encoding accumulates the checksum projections inside the packing");
    println!("pass and streams the checksum border without re-packing — the separate");
    println!("encode sweep, the augmented copy, and its allocation all disappear.");
}
