//! Roofline kernel cost model with occupancy.

use crate::device::GpuModel;

/// Static description of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// Arithmetic work.
    pub flops: f64,
    /// Bytes moved to/from HBM.
    pub bytes: f64,
    /// Thread blocks launched (drives occupancy).
    pub blocks: usize,
    /// Peak bandwidth fraction this kernel can reach at full occupancy
    /// (e.g. 0.914 for the paper's fused encoder, <0.1 for the cuBLAS
    /// composition).
    pub max_bw_utilization: f64,
}

/// Cost breakdown of a simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Total seconds including launch.
    pub time: f64,
    /// Memory-bound component.
    pub mem_time: f64,
    /// Compute-bound component.
    pub compute_time: f64,
    /// Achieved fraction of peak HBM bandwidth.
    pub bw_utilization: f64,
}

/// Occupancy ramp: a grid needs a few waves of blocks across the SMs before
/// the memory system saturates. `blocks/(blocks + sm_count)` rises from
/// ~0.5 at one wave toward 1.0 — matching how the paper's encoder
/// throughput grows with `batch × heads`.
fn occupancy_factor(blocks: usize, sm_count: usize) -> f64 {
    if blocks == 0 {
        return 0.0;
    }
    blocks as f64 / (blocks as f64 + sm_count as f64)
}

/// Simulate one kernel launch on `gpu`.
pub fn simulate(gpu: &GpuModel, spec: &KernelSpec) -> KernelCost {
    let occ = occupancy_factor(spec.blocks, gpu.sm_count);
    let util = (spec.max_bw_utilization * occ).clamp(1e-4, 1.0);
    let mem_time = gpu.mem_time(spec.bytes, util);
    let compute_time = spec.flops / (gpu.fp32_tflops * 1e12);
    let busy = mem_time.max(compute_time);
    let time = busy + gpu.launch();
    KernelCost {
        time,
        mem_time,
        compute_time,
        bw_utilization: spec.bytes / (gpu.mem_bw_gbs * 1e9) / time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuModel {
        GpuModel::a100_80gb()
    }

    #[test]
    fn occupancy_monotone() {
        let sm = 108;
        let mut last = 0.0;
        for blocks in [1, 54, 108, 432, 4096] {
            let o = occupancy_factor(blocks, sm);
            assert!(o > last);
            last = o;
        }
        assert!(occupancy_factor(100_000, sm) > 0.99);
        assert_eq!(occupancy_factor(0, sm), 0.0);
    }

    #[test]
    fn memory_bound_kernel_time_tracks_bytes() {
        let spec = KernelSpec {
            flops: 1e6,
            bytes: 1e9,
            blocks: 100_000,
            max_bw_utilization: 0.9,
        };
        let c = simulate(&gpu(), &spec);
        assert!(c.mem_time > c.compute_time);
        // ~1 GB at ~0.9 × 2 TB/s ≈ 0.55 ms.
        assert!(c.time > 4e-4 && c.time < 8e-4, "{}", c.time);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let spec = KernelSpec {
            flops: 1e3,
            bytes: 1e3,
            blocks: 1,
            max_bw_utilization: 0.9,
        };
        let c = simulate(&gpu(), &spec);
        assert!(c.time >= gpu().launch());
        assert!(c.time < 2.0 * gpu().launch());
    }

    #[test]
    fn utilization_never_exceeds_peak() {
        for blocks in [1, 10, 1000, 100_000] {
            let spec = KernelSpec {
                flops: 0.0,
                bytes: 1e8,
                blocks,
                max_bw_utilization: 0.95,
            };
            let c = simulate(&gpu(), &spec);
            assert!(c.bw_utilization <= 1.0);
            assert!(c.bw_utilization >= 0.0);
        }
    }
}
