//! Criterion bench: fused vs separate checksum-update strategy on the full
//! protected attention pipeline (the kernel-level view of Fig 8).

use attn_tensor::rng::TensorRng;
use attnchecker::attention::{AttentionWeights, ProtectedAttention};
use attnchecker::checked::{CheckedMatrix, ProductKind};
use attnchecker::config::{ProtectionConfig, Strategy};
use attnchecker::report::AbftReport;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_ablation");
    let (seq, hidden, heads) = (48usize, 96usize, 6usize);
    let mut rng = TensorRng::seed_from(3);
    let weights = AttentionWeights::random(hidden, heads, &mut rng);
    let x = rng.normal_matrix(seq, hidden, 0.5);

    for (name, cfg) in [
        ("fused", ProtectionConfig::full()),
        ("separate", ProtectionConfig::full_unoptimized()),
    ] {
        let attn = ProtectedAttention::new(weights.clone(), cfg);
        group.bench_with_input(BenchmarkId::new("attention", name), &x, |b, x| {
            b.iter(|| {
                let mut report = AbftReport::default();
                black_box(attn.forward_simple(black_box(x), &mut report).output)
            })
        });
    }

    // The raw augmented-GEMM comparison underneath.
    let a = rng.normal_matrix(64, 64, 1.0);
    let w = rng.normal_matrix(64, 64, 1.0);
    let ca = CheckedMatrix::encode_cols(&a, Strategy::Fused);
    let cw = CheckedMatrix::encode_rows(&w, Strategy::Fused);
    group.bench_function("gemm_fused_update", |b| {
        b.iter(|| black_box(CheckedMatrix::product(&ca, black_box(&cw), ProductKind::Nn)))
    });
    group.bench_function("gemm_separate_update", |b| {
        b.iter(|| black_box(CheckedMatrix::matmul_separate(&ca, black_box(&cw))))
    });
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
