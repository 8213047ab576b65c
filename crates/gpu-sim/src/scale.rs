//! Multi-billion-parameter data-parallel training-step model (paper
//! Fig 12).
//!
//! The paper projects ATTNChecker's overhead when training 30B/60B/100B-
//! parameter models on 1,024 GPUs "using the same simulation methodology as
//! existing work". This module is our equivalent: an analytic step model
//! (compute + ring allreduce) with an explicit account of the ABFT work —
//! fused checksum-update flops in the six attention GEMMs plus the
//! encode/detect memory passes.
//!
//! The headline property reproduced is *scale invariance*: the ABFT cost
//! and the attention cost both grow with the same model terms, so the
//! overhead percentage stays flat from 30B to 100B.

use crate::device::GpuModel;

/// A large decoder-only transformer in the Fig 12 style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BigModel {
    /// Display label ("30B" …).
    pub label: &'static str,
    /// Transformer layers.
    pub layers: usize,
    /// Model width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Training sequence length.
    pub seq: usize,
}

impl BigModel {
    /// ≈30B parameters (GPT-3-30B-like shape).
    pub fn b30() -> Self {
        Self {
            label: "30B",
            layers: 48,
            hidden: 7168,
            heads: 56,
            seq: 2048,
        }
    }

    /// ≈60B parameters.
    pub fn b60() -> Self {
        Self {
            label: "60B",
            layers: 64,
            hidden: 8832,
            heads: 69,
            seq: 2048,
        }
    }

    /// ≈100B parameters.
    pub fn b100() -> Self {
        Self {
            label: "100B",
            layers: 80,
            hidden: 10240,
            heads: 80,
            seq: 2048,
        }
    }

    /// The three Fig 12 sizes.
    pub fn fig12_sizes() -> [BigModel; 3] {
        [Self::b30(), Self::b60(), Self::b100()]
    }

    /// Approximate parameter count (`12·L·h²` transformer accounting).
    pub fn params(&self) -> f64 {
        12.0 * self.layers as f64 * (self.hidden as f64) * (self.hidden as f64)
    }

    /// Forward flops of one layer's attention GEMMs for one sequence.
    fn attn_fwd_flops(&self) -> f64 {
        let s = self.seq as f64;
        let h = self.hidden as f64;
        8.0 * s * h * h + 4.0 * s * s * h
    }

    /// Forward flops of one layer's FFN for one sequence (4× expansion).
    fn ffn_fwd_flops(&self) -> f64 {
        let s = self.seq as f64;
        let h = self.hidden as f64;
        16.0 * s * h * h
    }
}

/// Cluster/data-parallel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// GPUs in the data-parallel group.
    pub gpus: usize,
    /// Sequences per GPU per step.
    pub seqs_per_gpu: usize,
    /// Effective per-GPU allreduce bandwidth in GB/s.
    pub allreduce_bw_gbs: f64,
    /// Fraction of the allreduce hidden under backward compute.
    pub overlap: f64,
}

impl ClusterConfig {
    /// The paper's 1,024-GPU data-parallel setup.
    pub fn paper_1024() -> Self {
        Self {
            gpus: 1024,
            seqs_per_gpu: 2,
            allreduce_bw_gbs: 20.0,
            overlap: 0.7,
        }
    }
}

/// Cost breakdown of one simulated training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// Total step seconds without ABFT.
    pub base_step: f64,
    /// Seconds of attention forward inside the step.
    pub attention_fwd: f64,
    /// Extra seconds ATTNChecker adds.
    pub abft: f64,
    /// Gradient allreduce seconds (post-overlap).
    pub allreduce: f64,
}

impl StepBreakdown {
    /// ABFT overhead as a fraction of the unprotected step.
    pub fn abft_overhead(&self) -> f64 {
        self.abft / self.base_step
    }
}

/// ABFT cost of one layer's attention for one sequence, in seconds:
/// fused checksum rows in the six GEMMs plus encode/detect memory sweeps.
fn abft_layer_time(gpu: &GpuModel, m: &BigModel) -> f64 {
    let s = m.seq as f64;
    let h = m.hidden as f64;
    let heads = m.heads as f64;

    // Fused checksum updates: +2 rows/cols on each GEMM.
    // Projections X·W: extra 2·h·(2h) flops each, 4 of them; score GEMMs:
    // extra ≈ 2·(s+2)·(2·d)·heads ≈ 4·s·h each, 2 of them.
    let extra_flops = 4.0 * (4.0 * h * h) + 2.0 * (4.0 * s * h);
    let update = gpu.gemm_time(extra_flops);

    // Encoding sweeps: X once (column checksums for S_AS), W_V per head
    // slice (row checksums), AP per head (column checksums after softmax).
    let encode_bytes = (s * h + h * h / heads * heads + heads * s * s) * 4.0;
    // Detection sweeps: AS both sides, CL both sides, O one side, plus the
    // source heals are error-path-only (free when fault-free).
    let detect_bytes = (2.0 * heads * s * s + 2.0 * s * h + s * h) * 4.0;
    let mem = gpu.mem_time(encode_bytes + detect_bytes, 0.85);

    // Detection/encode kernels per layer (fused path): ~6 launches.
    let launches = 6.0 * gpu.launch();
    update + mem + launches
}

/// Simulate one data-parallel training step of `m` on `cluster`.
pub fn simulate_step(gpu: &GpuModel, m: &BigModel, cluster: &ClusterConfig) -> StepBreakdown {
    let seqs = cluster.seqs_per_gpu as f64;
    let layers = m.layers as f64;

    let attn_fwd = gpu.gemm_time(m.attn_fwd_flops()) * layers * seqs;
    let ffn_fwd = gpu.gemm_time(m.ffn_fwd_flops()) * layers * seqs;
    let fwd = attn_fwd + ffn_fwd;
    let bwd = 2.0 * fwd; // standard 2× forward accounting

    let grad_bytes = m.params() * 4.0;
    let ring = 2.0 * (cluster.gpus as f64 - 1.0) / cluster.gpus as f64;
    let allreduce_raw = ring * grad_bytes / (cluster.allreduce_bw_gbs * 1e9);
    let allreduce = allreduce_raw * (1.0 - cluster.overlap);

    let base_step = fwd + bwd + allreduce;
    let abft = abft_layer_time(gpu, m) * layers * seqs;

    StepBreakdown {
        base_step,
        attention_fwd: attn_fwd,
        abft,
        allreduce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuModel {
        GpuModel::a100_80gb()
    }

    #[test]
    fn parameter_counts_are_in_range() {
        assert!((BigModel::b30().params() / 1e9 - 30.0).abs() < 3.0);
        assert!((BigModel::b60().params() / 1e9 - 60.0).abs() < 6.0);
        assert!((BigModel::b100().params() / 1e9 - 100.0).abs() < 10.0);
    }

    #[test]
    fn overhead_is_small_and_scale_invariant() {
        // The Fig 12 claim: overhead ≈ constant as parameters grow.
        let cluster = ClusterConfig::paper_1024();
        let overheads: Vec<f64> = BigModel::fig12_sizes()
            .iter()
            .map(|m| simulate_step(&gpu(), m, &cluster).abft_overhead())
            .collect();
        for &o in &overheads {
            assert!(o > 0.001 && o < 0.15, "overhead {o}");
        }
        let spread = overheads.iter().cloned().fold(f64::MIN, f64::max)
            - overheads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 0.01,
            "overhead must be near-constant across sizes: {overheads:?}"
        );
    }

    #[test]
    fn attention_is_a_minority_of_the_step() {
        let b = simulate_step(&gpu(), &BigModel::b30(), &ClusterConfig::paper_1024());
        assert!(b.attention_fwd < b.base_step * 0.5);
        assert!(b.attention_fwd > 0.0);
    }

    #[test]
    fn allreduce_shrinks_with_overlap() {
        let mut c = ClusterConfig::paper_1024();
        let b1 = simulate_step(&gpu(), &BigModel::b30(), &c);
        c.overlap = 0.0;
        let b2 = simulate_step(&gpu(), &BigModel::b30(), &c);
        assert!(b2.allreduce > b1.allreduce);
    }

    #[test]
    fn abft_time_grows_with_model_but_slower_than_step() {
        let cluster = ClusterConfig::paper_1024();
        let s30 = simulate_step(&gpu(), &BigModel::b30(), &cluster);
        let s100 = simulate_step(&gpu(), &BigModel::b100(), &cluster);
        assert!(s100.abft > s30.abft);
        assert!(s100.base_step > s30.base_step);
    }
}
