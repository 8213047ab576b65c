//! Deterministic parallel campaign runner.
//!
//! The paper's Tables 2 and 4 aggregate thousands of single-fault trials
//! ("we randomly select 10% (~5,000) elements of each output matrix").
//! [`run_campaign`] executes `trials` independent closures over an explicit
//! worker count ([`attn_tensor::par::map`]), each with a deterministically
//! forked RNG, so results are reproducible and independent of the worker
//! count and of thread scheduling.

use attn_tensor::par;
use attn_tensor::rng::TensorRng;

/// Run `trials` independent trials over `workers` threads, results in
/// trial order.
///
/// Each trial receives `(trial_index, its own TensorRng)`; the RNG seed is
/// derived from `base_seed` and the trial index, so results do not depend on
/// `workers` or on scheduling order.
pub fn run_campaign<T: Send>(
    workers: usize,
    base_seed: u64,
    trials: usize,
    trial: impl Fn(usize, &mut TensorRng) -> T + Sync,
) -> Vec<T> {
    par::map(workers, &mut vec![(); trials], |i, _| {
        // SplitMix-style per-trial seed derivation keeps streams apart.
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .rotate_left(17);
        let mut rng = TensorRng::seed_from(seed);
        trial(i, &mut rng)
    })
}

/// Boolean-outcome campaign statistics with a Wilson confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignStats {
    /// Number of trials whose predicate held.
    pub successes: usize,
    /// Total trials.
    pub trials: usize,
}

impl CampaignStats {
    /// Aggregate a slice of boolean outcomes.
    pub fn from_outcomes(outcomes: &[bool]) -> Self {
        Self {
            successes: outcomes.iter().filter(|&&b| b).count(),
            trials: outcomes.len(),
        }
    }

    /// Point estimate of the success probability.
    ///
    /// Returns [`f64::NAN`] for an empty campaign: `0/0` has no point
    /// estimate, and reporting `0.0` would make a campaign that never ran
    /// indistinguishable from one where every trial failed.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// 95% Wilson score interval for the success probability.
    ///
    /// Returns `(NaN, NaN)` for an empty campaign, matching [`Self::rate`]:
    /// a campaign that never ran has no interval, and the old `(0.0, 1.0)`
    /// answer dressed the undefined case up as a maximally-wide-but-valid
    /// bound that downstream floor checks (`lo >= threshold`) silently
    /// passed or failed on. NaN poisons any such comparison loudly.
    pub fn wilson_95(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (f64::NAN, f64::NAN);
        }
        let n = self.trials as f64;
        let p = self.rate();
        let z = 1.959_964; // 97.5 percentile of the standard normal
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

    /// Formatted percentage, e.g. `"97.3%"`; `"n/a"` for an empty campaign
    /// (visibly distinct from an all-failure `"0.0%"`).
    pub fn percent(&self) -> String {
        if self.trials == 0 {
            "n/a".into()
        } else {
            format!("{:.1}%", 100.0 * self.rate())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use attn_tensor::guard::{softmax_rows_checked, verify_softmax_rows};
    use attn_tensor::OpGuard;

    #[test]
    fn campaign_is_deterministic_across_runs() {
        let a = run_campaign(4, 42, 64, |_, rng| rng.next_u64());
        let b = run_campaign(4, 42, 64, |_, rng| rng.next_u64());
        assert_eq!(a, b);
    }

    #[test]
    fn a_guarded_trial_is_identical_at_any_worker_count() {
        // One real guarded op per trial: a softmax output struck by a fault
        // class, then screened and healed. The guard's verdict and every
        // healed bit must not depend on how many threads ran the trials.
        const KINDS: [FaultKind; 7] = [
            FaultKind::Inf,
            FaultKind::NegInf,
            FaultKind::NaN,
            FaultKind::NearInf,
            FaultKind::SubThreshold,
            FaultKind::StuckRow,
            FaultKind::Burst { len: 3 },
        ];
        let trial = |i: usize, rng: &mut TensorRng| {
            let x = rng.uniform_matrix(4, 12, -4.0, 4.0);
            let g = OpGuard::new(true, 1e-3);
            let mut y = softmax_rows_checked(&x, &g);
            let (row, col) = (rng.index(4), rng.index(12));
            KINDS[i % KINDS.len()].strike(y.row_mut(row), col);
            verify_softmax_rows(&x, &mut y, &g);
            let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            (g.stats(), bits)
        };
        let base = run_campaign(1, 0x5EED, 28, trial);
        assert!(
            base.iter().any(|(s, _)| s.detections > 0),
            "no fault was seen"
        );
        for workers in [2, 4, 7] {
            assert_eq!(
                run_campaign(workers, 0x5EED, 28, trial),
                base,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn campaign_trials_have_distinct_streams() {
        let vals = run_campaign(2, 1, 32, |_, rng| rng.next_u64());
        let mut uniq = vals.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), vals.len());
    }

    #[test]
    fn campaign_indices_cover_range() {
        let idx = run_campaign(3, 5, 100, |i, _| i);
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn stats_rate_and_percent() {
        let s = CampaignStats::from_outcomes(&[true, true, false, true]);
        assert_eq!(s.successes, 3);
        assert!((s.rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.percent(), "75.0%");
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let s = CampaignStats {
            successes: 90,
            trials: 100,
        };
        let (lo, hi) = s.wilson_95();
        assert!(lo < 0.9 && 0.9 < hi);
        assert!(lo > 0.8 && hi < 0.97);
    }

    #[test]
    fn wilson_handles_extremes() {
        let all = CampaignStats {
            successes: 50,
            trials: 50,
        };
        let (lo, hi) = all.wilson_95();
        assert!(hi <= 1.0 && lo > 0.9);
        let none = CampaignStats {
            successes: 0,
            trials: 50,
        };
        let (lo, hi) = none.wilson_95();
        assert!(lo >= 0.0 && hi < 0.1);
    }

    #[test]
    fn empty_stats_are_visibly_distinct_from_all_failure() {
        let empty = CampaignStats::from_outcomes(&[]);
        assert!(empty.rate().is_nan(), "0/0 has no point estimate");
        assert_eq!(empty.percent(), "n/a");

        let all_failed = CampaignStats::from_outcomes(&[false, false]);
        assert_eq!(all_failed.rate(), 0.0);
        assert_eq!(all_failed.percent(), "0.0%");
    }

    #[test]
    fn empty_campaign_interval_is_nan_not_a_vacuous_bound() {
        // Regression: wilson_95 on 0 trials used to answer (0.0, 1.0),
        // which a floor check like `lo >= 0.95` treats as a real (failing)
        // measurement — and `hi >= x` as a passing one. NaN fails every
        // comparison, so a campaign that never ran can't masquerade as one
        // that did.
        let empty = CampaignStats::from_outcomes(&[]);
        let (lo, hi) = empty.wilson_95();
        assert!(lo.is_nan() && hi.is_nan());
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        {
            assert!(!(lo >= 0.0), "NaN must poison floor comparisons");
            assert!(!(hi <= 1.0), "NaN must poison ceiling comparisons");
        }

        // One-trial campaigns still get a real interval.
        let one = CampaignStats::from_outcomes(&[true]);
        let (lo, hi) = one.wilson_95();
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
    }
}
