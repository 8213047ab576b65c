//! Checksum-encoding kernel models (paper Fig 9).
//!
//! Encoding computes, for every `(batch, head)` slot of shape
//! `seq × head_dim`, two weighted column sums. It is purely bandwidth-bound
//! (each element is read once, the output is negligible), so throughput is
//! decided by how well the kernel streams HBM:
//!
//! * **ATTNChecker's fused encoder** parallelises across
//!   `batch × heads` blocks, stages slots in shared memory with decoupled
//!   load/compute thread mappings (fully coalesced loads, bank-conflict-free
//!   compute), and produces both the unweighted and weighted sums in one
//!   pass. The paper measures up to **91.4%** of peak bandwidth.
//! * **cuBLAS composition** (`cublasSgemvStridedBatched` × 2): two separate
//!   launches, each re-reading the operand, with tall-skinny GEMV shapes
//!   that occupy the machine poorly — the paper measures **<10%** of peak.
//!
//! [`encoding_throughput_curve`] reproduces the figure's x-axis sweep
//! (batch 24 → 1536 at GPT-2-ish dimensions).

use crate::device::GpuModel;
use crate::kernel::{simulate, KernelSpec};

/// Dimensions of one encoding workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingWorkload {
    /// Batch size.
    pub batch: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq: usize,
    /// Per-head width.
    pub head_dim: usize,
}

impl EncodingWorkload {
    /// GPT-2-like dimensions used for the Fig 9 sweep.
    pub fn gpt2_like(batch: usize) -> Self {
        Self {
            batch,
            heads: 12,
            seq: 128,
            head_dim: 64,
        }
    }

    /// Bytes of operand data one encoding pass must read.
    pub fn bytes(&self) -> f64 {
        (self.batch * self.heads * self.seq * self.head_dim * 4) as f64
    }

    /// Flops of one dual-checksum encoding (2 multiply-accumulate streams).
    pub fn flops(&self) -> f64 {
        4.0 * (self.batch * self.heads * self.seq * self.head_dim) as f64
    }

    /// Thread blocks the fused kernel launches (one per slot — the paper's
    /// "parallelize the encoding process along the SMs by number of heads ×
    /// number of batches").
    pub fn blocks(&self) -> usize {
        self.batch * self.heads
    }
}

/// Peak bandwidth fraction of the paper's fused encoder at full occupancy.
pub const FUSED_MAX_UTILIZATION: f64 = 0.914;

/// Effective bandwidth fraction of one cuBLAS strided-batched GEMV on the
/// tall-skinny encoding shapes (per launch, at full occupancy).
pub const CUBLAS_GEMV_UTILIZATION: f64 = 0.15;

/// Simulated time (seconds) of the fused ATTNChecker encoder.
fn fused_encode_time(gpu: &GpuModel, w: &EncodingWorkload) -> f64 {
    simulate(
        gpu,
        &KernelSpec {
            flops: w.flops(),
            bytes: w.bytes(),
            blocks: w.blocks(),
            max_bw_utilization: FUSED_MAX_UTILIZATION,
        },
    )
    .time
}

/// Simulated time (seconds) of the cuBLAS composition: two strided-batched
/// GEMV launches, each re-reading the operand.
fn cublas_encode_time(gpu: &GpuModel, w: &EncodingWorkload) -> f64 {
    let one_pass = simulate(
        gpu,
        &KernelSpec {
            flops: w.flops() / 2.0,
            bytes: w.bytes(), // each pass reads all of A again
            blocks: w.blocks(),
            max_bw_utilization: CUBLAS_GEMV_UTILIZATION,
        },
    );
    2.0 * one_pass.time
}

/// Effective *useful* throughput in TB/s: operand bytes (counted once)
/// divided by wall time — the quantity Fig 9 plots.
fn throughput_tbs(bytes: f64, time: f64) -> f64 {
    bytes / time / 1e12
}

/// One row of the Fig 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodingPoint {
    /// Batch size (x-axis).
    pub batch: usize,
    /// cuBLAS composition throughput, TB/s.
    pub cublas_tbs: f64,
    /// ATTNChecker fused-encoder throughput, TB/s.
    pub fused_tbs: f64,
}

/// Sweep the paper's batch sizes (24 → 1536) on the A100 model.
pub fn encoding_throughput_curve(gpu: &GpuModel, batches: &[usize]) -> Vec<EncodingPoint> {
    batches
        .iter()
        .map(|&batch| {
            let w = EncodingWorkload::gpt2_like(batch);
            let fused = fused_encode_time(gpu, &w);
            let cublas = cublas_encode_time(gpu, &w);
            EncodingPoint {
                batch,
                cublas_tbs: throughput_tbs(w.bytes(), cublas),
                fused_tbs: throughput_tbs(w.bytes(), fused),
            }
        })
        .collect()
}

/// The batch sizes on the paper's Fig 9 x-axis.
pub const FIG9_BATCHES: [usize; 7] = [24, 48, 96, 192, 384, 768, 1536];

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuModel {
        GpuModel::a100_80gb()
    }

    #[test]
    fn fused_beats_cublas_everywhere() {
        for p in encoding_throughput_curve(&gpu(), &FIG9_BATCHES) {
            assert!(
                p.fused_tbs > p.cublas_tbs,
                "batch {}: fused {} vs cublas {}",
                p.batch,
                p.fused_tbs,
                p.cublas_tbs
            );
        }
    }

    #[test]
    fn fused_approaches_91_percent_of_peak() {
        let p = encoding_throughput_curve(&gpu(), &[1536])[0];
        let peak = gpu().mem_bw_gbs / 1000.0; // TB/s
        let frac = p.fused_tbs / peak;
        assert!(frac > 0.80 && frac <= 0.92, "fraction {frac}");
    }

    #[test]
    fn cublas_stays_below_10_percent_of_peak() {
        for p in encoding_throughput_curve(&gpu(), &FIG9_BATCHES) {
            let frac = p.cublas_tbs / (gpu().mem_bw_gbs / 1000.0);
            assert!(frac < 0.10, "batch {}: {frac}", p.batch);
        }
    }

    #[test]
    fn speedup_is_on_the_order_of_13x() {
        // Paper: "Our optimized kernel outperforms cuBLAS by 13×".
        let p = encoding_throughput_curve(&gpu(), &[768])[0];
        let speedup = p.fused_tbs / p.cublas_tbs;
        assert!(speedup > 8.0 && speedup < 20.0, "speedup {speedup}");
    }

    #[test]
    fn throughput_grows_with_batch() {
        let pts = encoding_throughput_curve(&gpu(), &FIG9_BATCHES);
        for w in pts.windows(2) {
            assert!(w[1].fused_tbs >= w[0].fused_tbs);
        }
    }

    #[test]
    fn workload_accounting() {
        let w = EncodingWorkload::gpt2_like(24);
        assert_eq!(w.blocks(), 288);
        assert_eq!(w.bytes(), (24 * 12 * 128 * 64 * 4) as f64);
    }
}
