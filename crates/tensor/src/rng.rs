//! Deterministic random-number helpers.
//!
//! Every experiment in the reproduction (initialisation, data generation,
//! fault-site selection) derives from a seeded [`TensorRng`] so that the
//! campaigns in the paper's Tables 2 and 4 replay bit-identically.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded RNG wrapper with matrix-initialisation conveniences.
///
/// `Clone` snapshots the stream state: a clone replays the same sequence
/// as the original from the point of cloning (used by tests that need a
/// twin of an already-advanced stream).
#[derive(Clone)]
pub struct TensorRng {
    inner: StdRng,
    /// Cached second Box–Muller output.
    spare_normal: Option<f32>,
}

impl TensorRng {
    /// Construct from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Raw u64 draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Bernoulli draw with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Standard normal via Box–Muller (rand's distributions crate is not in
    /// the dependency budget).
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1: f32 = 1.0 - self.inner.gen::<f32>();
        let u2: f32 = self.inner.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    fn normal_scaled(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Matrix of iid normal entries with standard deviation `std`.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal_scaled(0.0, std))
    }

    /// Matrix of iid uniform entries in `[lo, hi)`.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.uniform(lo, hi))
    }

    /// Xavier/Glorot-uniform initialisation for a `fan_in × fan_out` weight.
    pub fn xavier_matrix(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform_matrix(fan_in, fan_out, -limit, limit)
    }

    /// Truncated-normal initialisation as used for transformer embeddings
    /// (values beyond 2σ are redrawn).
    pub fn trunc_normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| loop {
            let z = self.normal();
            if z.abs() <= 2.0 {
                return z * std;
            }
        })
    }

    /// Fisher–Yates shuffle of indices `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.inner.gen_range(0..=i);
            idx.swap(i, j);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = TensorRng::seed_from(42);
        let mut b = TensorRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = TensorRng::seed_from(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn normals_are_finite() {
        let mut rng = TensorRng::seed_from(9);
        assert!((0..10_000).all(|_| rng.normal().is_finite()));
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = TensorRng::seed_from(3);
        let m = rng.xavier_matrix(64, 64);
        let limit = (6.0 / 128.0f32).sqrt();
        assert!(m.data().iter().all(|x| x.abs() <= limit));
    }

    #[test]
    fn trunc_normal_bounded() {
        let mut rng = TensorRng::seed_from(5);
        let m = rng.trunc_normal_matrix(32, 32, 0.02);
        assert!(m.data().iter().all(|x| x.abs() <= 0.04 + 1e-6));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = TensorRng::seed_from(11);
        let p = rng.permutation(100);
        let mut seen = vec![false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn index_in_range() {
        let mut rng = TensorRng::seed_from(13);
        for _ in 0..1000 {
            assert!(rng.index(17) < 17);
        }
    }
}
