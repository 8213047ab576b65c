//! Wall-clock measurement helpers.

use std::time::{Duration, Instant};

/// Summary statistics of repeated timed runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredTime {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Fastest run.
    pub min: Duration,
}

/// Run `f` for `warmup` unmeasured iterations then `iters` measured ones.
pub fn measure(warmup: usize, iters: usize, mut f: impl FnMut()) -> MeasuredTime {
    for _ in 0..warmup {
        f();
    }
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed());
    }
    let total: Duration = times.iter().sum();
    MeasuredTime {
        mean: total / times.len() as u32,
        min: times.iter().min().copied().unwrap_or_default(),
    }
}

/// Format a fraction as a percentage string, e.g. `0.0712 → "7.1%"`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Median of a sample (by value; empty input yields 0).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iterations() {
        let mut calls = 0;
        let t = measure(2, 5, || calls += 1);
        assert_eq!(calls, 7);
        assert!(t.min <= t.mean);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.0712), "7.1%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
