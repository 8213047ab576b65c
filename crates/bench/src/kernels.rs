//! Kernel-level measurements: the fused-vs-standalone encoding comparison
//! `fig8_opt_ablation` and `fig9_encoding_throughput` tabulate, with the
//! definition of the "standalone" baseline in one place.

use crate::timing::measure;
use attn_tensor::gemm::{gemm_encode_cols_into, matmul};
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::checksum::col_checksums;
use std::hint::black_box;
use std::time::Duration;

/// One fused-vs-standalone encoding measurement at a GEMM shape.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOverhead {
    /// Fastest plain (unprotected) product time, milliseconds.
    pub plain_ms: f64,
    /// Overhead ratio of fused encode-in-GEMM vs the plain product.
    pub fused: f64,
    /// Overhead ratio of standalone encode-then-GEMM (sweep + augmented
    /// copy + bigger GEMM — what every section entry paid before fusion)
    /// vs the plain product.
    pub standalone: f64,
}

/// Unmeasured rounds before [`measure_encode_overhead`] starts timing.
const WARMUP: usize = 2;

/// Measure the `m×k×n` column-encoding overhead pair (fastest-run
/// statistics over `trials` measured rounds). The three variants run
/// interleaved, one of each per round, so a slow window on a shared host
/// lands on all three rather than on whichever was being timed.
#[allow(
    clippy::disallowed_methods,
    reason = "times the raw GEMM and fused-encode kernels that the guarded sections are built from"
)]
pub fn measure_encode_overhead(
    m: usize,
    k: usize,
    n: usize,
    trials: usize,
    seed: u64,
) -> EncodeOverhead {
    let mut rng = TensorRng::seed_from(seed);
    let a = rng.uniform_matrix(m, k, -1.0, 1.0);
    let b = rng.uniform_matrix(k, n, -1.0, 1.0);
    let mut c_aug = Matrix::zeros(m + 2, n);
    let (mut plain, mut fused, mut standalone) = (Duration::MAX, Duration::MAX, Duration::MAX);
    for round in 0..WARMUP + trials.max(1) {
        let p = measure(0, 1, || {
            black_box(matmul(black_box(&a), &b));
        });
        let f = measure(0, 1, || {
            gemm_encode_cols_into(black_box(&a).view(), b.view(), c_aug.view_mut());
            black_box(&c_aug);
        });
        let s = measure(0, 1, || {
            let cs = col_checksums(black_box(&a));
            let aug = a.vstack(&cs);
            black_box(matmul(&aug, &b));
        });
        if round >= WARMUP {
            plain = plain.min(p.min);
            fused = fused.min(f.min);
            standalone = standalone.min(s.min);
        }
    }
    EncodeOverhead {
        plain_ms: plain.as_secs_f64() * 1e3,
        fused: fused.as_secs_f64() / plain.as_secs_f64() - 1.0,
        standalone: standalone.as_secs_f64() / plain.as_secs_f64() - 1.0,
    }
}
