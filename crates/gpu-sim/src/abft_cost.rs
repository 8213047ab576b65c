//! A100-side cost model of the two ABFT implementation strategies
//! (the GPU half of the paper's Fig 8 ablation).
//!
//! On the GPU, the optimized and non-optimized variants differ mainly in
//! *kernel count* and *redundant traffic*:
//!
//! * **OPT (fused)** — checksums ride inside the operands, so updates are
//!   free GEMM rows; one fused encoder per encode site; one
//!   divergence-free detection kernel per section. ~6 extra launches per
//!   layer, one memory sweep each.
//! * **Non-OPT (separate)** — every checksum is produced by composed
//!   cuBLAS GEMV calls (two per matrix side, each re-reading the operand at
//!   poor tall-skinny efficiency), plus separate update products and a
//!   detection kernel after *every* GEMM (no delayed detection). ~30
//!   launches per layer and ~3× the checksum traffic.

use crate::device::GpuModel;
use crate::encoding::CUBLAS_GEMV_UTILIZATION;

/// Attention workload shape for the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbftWorkload {
    /// Batch size.
    pub batch: usize,
    /// Heads.
    pub heads: usize,
    /// Sequence length.
    pub seq: usize,
    /// Model width.
    pub hidden: usize,
}

impl AbftWorkload {
    /// The paper's Fig 8 setting: batch 16 at BERT-base-like dims.
    pub fn fig8_default() -> Self {
        Self {
            batch: 16,
            heads: 12,
            seq: 128,
            hidden: 768,
        }
    }

    /// Forward flops of the six attention GEMMs for the whole batch.
    fn attention_flops(&self) -> f64 {
        let (s, h, b) = (self.seq as f64, self.hidden as f64, self.batch as f64);
        b * (8.0 * s * h * h + 4.0 * s * s * h)
    }

    /// Bytes of the matrices the ABFT machinery touches once
    /// (X, Q, K, V, AS, AP, CL, O) for the whole batch.
    fn abft_sweep_bytes(&self) -> f64 {
        let (s, h, b) = (self.seq as f64, self.hidden as f64, self.batch as f64);
        let heads = self.heads as f64;
        b * (5.0 * s * h + 3.0 * heads * s * s) * 4.0
    }
}

/// Fraction of peak tensor throughput the moderately-sized attention GEMMs
/// of the Fig 8 workload sustain (seq-128 shapes do not saturate an A100
/// the way the large-model GEMMs of [`crate::scale`] do).
pub const ATTN_GEMM_EFFICIENCY: f64 = 0.2;

/// Attention-block forward time for the ablation workload.
fn attention_block_time(gpu: &GpuModel, w: &AbftWorkload) -> f64 {
    w.attention_flops() / (gpu.tensor_tflops * 1e12 * ATTN_GEMM_EFFICIENCY)
}

/// Cost (seconds) of one layer's ABFT work under the fused strategy.
fn opt_abft_time(gpu: &GpuModel, w: &AbftWorkload) -> f64 {
    // Fused checksum rows inside the GEMMs: +2/s of the GEMM flops.
    let update = w.attention_flops() * 2.0
        / w.seq as f64
        / (gpu.tensor_tflops * 1e12 * ATTN_GEMM_EFFICIENCY);
    // Fused encode+detect sweeps share passes over the protected matrices
    // (only AS needs both sides), at the custom kernel's high utilization.
    let sweep = gpu.mem_time(0.6 * w.abft_sweep_bytes(), 0.9);
    // A handful of batched launches per layer (encoders + detectors are
    // batched across heads and sections).
    update + sweep + 4.0 * gpu.launch()
}

/// Cost (seconds) of one layer's ABFT work under the separate strategy.
fn non_opt_abft_time(gpu: &GpuModel, w: &AbftWorkload) -> f64 {
    // Separate cuBLAS-composed checksum updates re-read each operand
    // (two weight projections per side) at tall-skinny GEMV efficiency.
    let updates = gpu.mem_time(2.0 * w.abft_sweep_bytes(), 3.0 * CUBLAS_GEMV_UTILIZATION);
    // Immediate detection after every GEMM: another full sweep.
    let detects = gpu.mem_time(w.abft_sweep_bytes(), 0.8);
    // Launch storm: 6 GEMMs × (encode + update + detect) = 18.
    updates + detects + 18.0 * gpu.launch()
}

/// `(non_opt_overhead, opt_overhead)` as fractions of the attention-block
/// forward time.
pub fn fig8_projection(gpu: &GpuModel, w: &AbftWorkload) -> (f64, f64) {
    let attn = attention_block_time(gpu, w);
    (
        non_opt_abft_time(gpu, w) / attn,
        opt_abft_time(gpu, w) / attn,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuModel {
        GpuModel::a100_80gb()
    }

    #[test]
    fn non_opt_is_several_times_costlier() {
        let w = AbftWorkload::fig8_default();
        let (non_opt, opt) = fig8_projection(&gpu(), &w);
        assert!(
            non_opt / opt > 3.0 && non_opt / opt < 15.0,
            "ratio {}",
            non_opt / opt
        );
    }

    #[test]
    fn overheads_bracket_paper_ranges() {
        // Paper: Non-OPT 62–93%, OPT 7–13% on the attention block.
        let w = AbftWorkload::fig8_default();
        let (non_opt, opt) = fig8_projection(&gpu(), &w);
        assert!(non_opt > 0.3 && non_opt < 1.5, "non-opt {non_opt}");
        assert!(opt > 0.02 && opt < 0.25, "opt {opt}");
    }

    #[test]
    fn larger_batches_amortize_launch_overhead() {
        let small = AbftWorkload {
            batch: 2,
            ..AbftWorkload::fig8_default()
        };
        let big = AbftWorkload {
            batch: 64,
            ..AbftWorkload::fig8_default()
        };
        let (ns, _) = fig8_projection(&gpu(), &small);
        let (nb, _) = fig8_projection(&gpu(), &big);
        assert!(nb < ns, "launch overhead must amortize: {ns} -> {nb}");
    }
}
