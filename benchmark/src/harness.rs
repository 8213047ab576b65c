//! Measurement primitives: the percentile rule, the lock-step twin driver,
//! the virtual clock of the serving loops, seeded input generators and the
//! derivation of serving latencies from tick stamps.

use crate::api::TensorRng;
use crate::trace::Tracer;
use std::time::Instant;

/// A percentile is printed only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// A harness error: the run cannot report what it promised and exits
/// non-zero. Oracle violations are not errors; they count failed operations.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessError(pub String);

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for HarnessError {}

pub type Result<T> = std::result::Result<T, HarnessError>;

/// Nearest-rank percentile `p` in (0, 1) of `samples`, refused unless
/// [`MIN_BEYOND`] samples lie beyond the returned one.
pub fn percentile(samples: &[f64], p: f64, what: &str) -> Result<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile: p must be in (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    if n < idx + 1 + MIN_BEYOND {
        return Err(HarnessError(format!(
            "{what}: p{} of {n} samples has fewer than {MIN_BEYOND} samples beyond it",
            p * 100.0
        )));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[idx])
}

/// The median under the same rule (at least 20 samples).
pub fn median(samples: &[f64], what: &str) -> Result<f64> {
    percentile(samples, 0.5, what)
}

/// Arithmetic mean, for series too short for the percentile rule.
pub fn mean(samples: &[f64], what: &str) -> Result<f64> {
    if samples.is_empty() {
        return Err(HarnessError(format!("{what}: no samples")));
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Steps a protected system and its unprotected twin op by op from one
/// thread and keeps both wall times of every pair, so that host drift hits
/// both sides of `protected_ratio` alike.
#[derive(Default)]
pub struct Lockstep {
    /// Wall seconds of each protected op.
    pub prot_s: Vec<f64>,
    /// Wall seconds of the twin's op of the same pair.
    pub twin_s: Vec<f64>,
    /// Whether the pair's protected op recorded a span.
    traced: Vec<bool>,
}

impl Lockstep {
    /// Run one pair: the protected op (a span named `name` when the tracer
    /// samples this op), then the twin's.
    pub fn pair<A, B>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        prot: impl FnOnce() -> A,
        twin: impl FnOnce() -> B,
    ) -> (A, B) {
        let (a, prot_s) = tracer.span(name, prot);
        let t0 = Instant::now();
        let b = twin();
        let twin_s = t0.elapsed().as_secs_f64();
        self.record(prot_s, twin_s, tracer.sampling());
        (a, b)
    }

    /// Record a pair timed by the caller.
    pub fn record(&mut self, prot_s: f64, twin_s: f64, traced: bool) {
        self.prot_s.push(prot_s);
        self.twin_s.push(twin_s);
        self.traced.push(traced);
    }

    /// Pairs recorded.
    pub fn len(&self) -> usize {
        self.prot_s.len()
    }

    /// No pair recorded yet.
    pub fn is_empty(&self) -> bool {
        self.prot_s.is_empty()
    }

    /// The median over the pairs of protected wall ÷ twin wall. The two ops
    /// of a pair run back to back, so a drift of the host that lasts longer
    /// than a pair cancels inside each ratio; the ratio of the two medians
    /// spread three times as wide between runs on the host this was defined
    /// on.
    pub fn ratio(&self, what: &str) -> Result<f64> {
        median(&self.pair_ratios(|_| true), what)
    }

    /// Ratio over the traced pairs ÷ ratio over the untraced pairs − 1: what
    /// recording spans costs, measured inside one run so that drift cancels.
    pub fn trace_overhead(&self) -> Result<f64> {
        let traced = median(&self.pair_ratios(|t| t), "trace overhead")?;
        let untraced = median(&self.pair_ratios(|t| !t), "trace overhead")?;
        Ok(traced / untraced - 1.0)
    }

    fn pair_ratios(&self, keep: impl Fn(bool) -> bool) -> Vec<f64> {
        (0..self.len())
            .filter(|&i| keep(self.traced[i]))
            .map(|i| self.prot_s[i] / self.twin_s[i])
            .collect()
    }
}

/// The clock of the serving loops. It advances only by the protected
/// gateway's measured tick time and jumps over idle gaps, which is exact for
/// a single-threaded gateway that does nothing between ticks: the load
/// generator never lags, and the twin runs between ticks without taking
/// service time from the system under test.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    /// Virtual seconds since the start of the timed section.
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Is an arrival due at `due_s` to be submitted before the next tick?
    pub fn is_due(&self, due_s: f64) -> bool {
        due_s <= self.now_s
    }

    /// Account one tick of `wall_s` seconds.
    pub fn advance(&mut self, wall_s: f64) {
        self.now_s += wall_s;
    }

    /// The system is idle: jump to the next arrival. Never moves backwards.
    pub fn skip_idle_to(&mut self, due_s: f64) {
        self.now_s = self.now_s.max(due_s);
    }
}

/// Seeded input generators. Draws come in blocks: each block of
/// [`Inputs::BLOCK`] values is a seeded permutation of evenly spaced
/// quantiles of the target distribution, so every block holds the same
/// multiset of sizes and gaps and only their order depends on the seed. The
/// order still decides bursts and batch composition; the per-run totals no
/// longer depend on the seed, which keeps run-to-run spread below the
/// regression bounds in runs of a few hundred requests.
pub struct Inputs {
    rng: TensorRng,
}

impl Inputs {
    /// Values per stratified block.
    pub const BLOCK: usize = 24;

    pub fn new(seed: u64) -> Self {
        Self {
            rng: TensorRng::seed_from(seed),
        }
    }

    /// Uniform integer in `[0, n)`, independent draws.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.index(n)
    }

    /// `len` token ids below `vocab`.
    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| self.rng.index(vocab)).collect()
    }

    /// One block of integers uniform on `lo..=hi`.
    pub fn uniform_block(&mut self, (lo, hi): (usize, usize)) -> Vec<usize> {
        let span = hi - lo + 1;
        self.rng
            .permutation(Self::BLOCK)
            .into_iter()
            .map(|i| lo + i * span / Self::BLOCK)
            .collect()
    }

    /// One block of inter-arrival gaps of a Poisson process of `rate_hz`.
    pub fn poisson_gap_block(&mut self, rate_hz: f64) -> Vec<f64> {
        self.rng
            .permutation(Self::BLOCK)
            .into_iter()
            .map(|i| {
                let u = (i as f64 + 0.5) / Self::BLOCK as f64;
                -(1.0 - u).ln() / rate_hz
            })
            .collect()
    }
}

/// What the gateway tells the outside about one finished request, plus what
/// the driver knows: when it was due and how long its prompt was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// Virtual second the request was due (open loop) or submitted.
    pub due_s: f64,
    /// `Completion.submitted_at`.
    pub submitted_at: u64,
    /// `Completion.finished_at`.
    pub finished_at: u64,
    /// Generated tokens.
    pub generated: usize,
    /// Prompt tokens fed one per tick after admission.
    pub fed: usize,
}

/// Latencies of one request derived from tick stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Due → end of the tick that produced the first generated token.
    pub ttft_s: f64,
    /// Gaps between consecutive generated tokens.
    pub itl_s: Vec<f64>,
    /// Due → end of the tick whose drain returned the request.
    pub total_s: f64,
    /// Ticks between submission and admission.
    pub queue_wait_ticks: u64,
}

/// Derive a request's latencies from `tick_end_s[k]`, the virtual time at
/// the end of gateway tick `k`. Without parking, a request drained with
/// `finished_at = F` and `n` generated tokens produced its last token in
/// tick `F − 1` and one token in every tick since `F − n`; its prompt's
/// `fed` tokens took the `fed` ticks before that, the first of them (or the
/// first generating tick when `fed = 0`) being the tick of admission.
pub fn derive_latency(served: &Served, tick_end_s: &[f64]) -> Result<Latency> {
    let f = served.finished_at as usize;
    let n = served.generated;
    let first = f
        .checked_sub(n)
        .filter(|_| n > 0 && f < tick_end_s.len())
        .ok_or_else(|| {
            HarnessError(format!(
                "derive_latency: request finished at tick {f} with {n} tokens, {} ticks stamped",
                tick_end_s.len()
            ))
        })?;
    let admitted = (first as u64)
        .checked_sub(served.fed as u64)
        .filter(|a| *a >= served.submitted_at)
        .ok_or_else(|| {
            HarnessError(format!(
                "derive_latency: first token in tick {first} after {} fed tokens precedes submission at tick {}",
                served.fed, served.submitted_at
            ))
        })?;
    Ok(Latency {
        ttft_s: tick_end_s[first] - served.due_s,
        itl_s: tick_end_s[first..f]
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect(),
        total_s: tick_end_s[f] - served.due_s,
        queue_wait_ticks: admitted - served.submitted_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95, "t").unwrap(), 190.0);
        assert!(percentile(&v[..199], 0.95, "t").is_err());
        assert!(percentile(&v, 0.99, "t").is_err());
        let m: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&m, "t").unwrap(), 10.0);
        assert!(median(&m[..19], "t").is_err());
    }

    #[test]
    fn percentile_does_not_depend_on_sample_order() {
        let mut v: Vec<f64> = (1..=101).map(f64::from).collect();
        v.reverse();
        assert_eq!(median(&v, "t").unwrap(), 51.0);
    }

    #[test]
    fn lockstep_keeps_pairs_and_reports_the_median_pair_ratio() {
        let mut ls = Lockstep::default();
        let mut tracer = Tracer::new(false);
        let mut order = Vec::new();
        for i in 0..30 {
            let (a, b) = ls.pair(
                &mut tracer,
                "op",
                || {
                    order.push(('p', i));
                    i
                },
                || i * 2,
            );
            assert_eq!((a, b), (i, i * 2));
        }
        assert_eq!(ls.len(), 30);
        assert_eq!(order.len(), 30);
        // Recorded pairs, not measured ones: the ratio is exact.
        let mut ls = Lockstep::default();
        for i in 0..25 {
            ls.record(3.0 + f64::from(i % 2), 2.0, i % 2 == 0);
        }
        assert_eq!(ls.ratio("t").unwrap(), 1.5);
        assert!(
            ls.trace_overhead().is_err(),
            "12 untraced pairs are too few"
        );
        for i in 0..16 {
            ls.record(3.0 + f64::from(i % 2), 2.0, i % 2 == 0);
        }
        assert!(
            ls.trace_overhead().is_ok(),
            "20 pairs on either side suffice"
        );
    }

    #[test]
    fn trace_overhead_compares_traced_with_untraced_pairs() {
        let mut ls = Lockstep::default();
        for i in 0..50 {
            let traced = i % 2 == 0;
            ls.record(if traced { 2.2 } else { 2.0 }, 1.0, traced);
        }
        assert!((ls.trace_overhead().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn virtual_clock_submits_when_due_and_skips_idle_time() {
        let mut clock = VirtualClock::default();
        assert!(clock.is_due(0.0));
        assert!(!clock.is_due(0.5));
        clock.advance(0.2);
        clock.advance(0.4);
        assert!(clock.is_due(0.5));
        assert!(!clock.is_due(0.7));
        clock.skip_idle_to(2.0);
        assert_eq!(clock.now(), 2.0);
        clock.skip_idle_to(1.0);
        assert_eq!(clock.now(), 2.0, "the clock never moves backwards");
    }

    #[test]
    fn blocks_hold_the_same_values_for_every_seed() {
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        let a = Inputs::new(1).uniform_block((8, 48));
        let b = Inputs::new(2).uniform_block((8, 48));
        assert_ne!(a, b, "the order depends on the seed");
        assert_eq!(sorted(a.clone()), sorted(b));
        assert_eq!(a, Inputs::new(1).uniform_block((8, 48)));
        assert!(a.iter().all(|v| (8..=48).contains(v)));
        assert_eq!(*a.iter().min().unwrap(), 8);

        let gaps = Inputs::new(3).poisson_gap_block(10.0);
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean_gap - 0.1).abs() < 0.01,
            "mean gap {mean_gap} is not 1/rate"
        );
        assert!(gaps.iter().all(|g| *g > 0.0));
    }

    /// Three requests over eight ticks of 10 ms, built by hand. Request A
    /// (prompt 4 = one chunk, 3 tokens) is admitted on arrival; B (prompt 6,
    /// so 2 fed, 2 tokens) too; C (prompt 4, 2 tokens) waits two ticks for a
    /// slot.
    #[test]
    fn latencies_follow_from_finish_tick_and_token_count() {
        let tick_end_s: Vec<f64> = (1..=8).map(|k| f64::from(k) * 0.010).collect();
        // A: due 0.000, ticks 0,1,2 generate, drained in tick 3.
        let a = derive_latency(
            &Served {
                due_s: 0.0,
                submitted_at: 0,
                finished_at: 3,
                generated: 3,
                fed: 0,
            },
            &tick_end_s,
        )
        .unwrap();
        assert!((a.ttft_s - 0.010).abs() < 1e-12);
        assert_eq!(a.itl_s.len(), 2);
        assert!(a.itl_s.iter().all(|g| (g - 0.010).abs() < 1e-12));
        assert!((a.total_s - 0.040).abs() < 1e-12);
        assert_eq!(a.queue_wait_ticks, 0);

        // B: due 0.004 (submitted before tick 1), fed in ticks 1,2, tokens in
        // ticks 3,4, drained in tick 5.
        let b = derive_latency(
            &Served {
                due_s: 0.004,
                submitted_at: 1,
                finished_at: 5,
                generated: 2,
                fed: 2,
            },
            &tick_end_s,
        )
        .unwrap();
        assert!((b.ttft_s - (0.040 - 0.004)).abs() < 1e-12);
        assert_eq!(b.itl_s.len(), 1);
        assert!((b.total_s - (0.060 - 0.004)).abs() < 1e-12);
        assert_eq!(b.queue_wait_ticks, 0);

        // C: due 0.015 (submitted before tick 2), admitted in tick 4, tokens
        // in ticks 4,5, drained in tick 6.
        let c = derive_latency(
            &Served {
                due_s: 0.015,
                submitted_at: 2,
                finished_at: 6,
                generated: 2,
                fed: 0,
            },
            &tick_end_s,
        )
        .unwrap();
        assert!((c.ttft_s - (0.050 - 0.015)).abs() < 1e-12);
        assert_eq!(c.queue_wait_ticks, 2);

        // A finish tick the driver never stamped is a harness error.
        let bad = Served {
            due_s: 0.0,
            submitted_at: 0,
            finished_at: 9,
            generated: 2,
            fed: 0,
        };
        assert!(derive_latency(&bad, &tick_end_s).is_err());
    }
}
