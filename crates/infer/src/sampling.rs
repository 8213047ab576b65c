//! Next-token selection from a logits row.

use attn_tensor::guard::softmax_rows_checked;
use attn_tensor::ops::argmax;
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};

/// Sampling strategy for [`sample_token`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Deterministic argmax (first maximum wins; NaN never wins).
    Greedy,
    /// Softmax at the given temperature, sampled with the session RNG.
    /// Temperatures `<= 0` degrade to greedy.
    Temperature(f32),
}

/// Pick the next token id from a `1 × vocab` logits row.
///
/// Deterministic given the logits and the RNG state: batched engines give
/// each session its own RNG, seeded at admission, so scheduling cannot
/// perturb samples.
/// Under an active `g` the temperature softmax is guarded — the
/// probability row is screened (entries in `[0, 1]`, sum ~1) and healed by
/// exact recompute from the scaled logits on violation, so a struck
/// distribution cannot silently skew token selection; [`OpGuard::off`] is
/// the unguarded sampler.
///
/// # Panics
/// Panics on an empty logits row.
pub fn sample_token(
    logits: &Matrix,
    sampling: Sampling,
    rng: &mut TensorRng,
    g: &OpGuard,
) -> usize {
    assert_eq!(logits.rows(), 1, "sample_token: one logits row");
    assert!(logits.cols() > 0, "sample_token: empty logits");
    let row = logits.row(0);
    match sampling {
        Sampling::Greedy => argmax(row),
        Sampling::Temperature(t) if t > 0.0 => {
            let scaled = logits.map(|v| v / t);
            let p = softmax_rows_checked(&scaled, g);
            let prow = p.row(0);

            // A poisoned row (NaN logits, the non-trainable-state signal)
            // has no distribution to sample; fall back to argmax, which
            // ignores NaNs.
            if prow.iter().any(|v| !v.is_finite()) {
                return argmax(row);
            }
            let u = rng.uniform(0.0, 1.0);
            let mut acc = 0.0f32;
            for (i, &pi) in prow.iter().enumerate() {
                acc += pi;
                if u < acc {
                    return i;
                }
            }
            // Round-off tail: the probabilities can sum to slightly less
            // than 1, so u may exceed the accumulated mass. Falling off the
            // end must not emit a zero-probability token (e.g. a masked
            // -INF logit at the end of the vocab).
            last_positive(prow)
        }
        Sampling::Temperature(_) => argmax(row),
    }
}

/// Last index with strictly positive probability — where round-off tail
/// mass actually belongs. An all-zero row (degenerate input) maps to 0.
fn last_positive(row: &[f32]) -> usize {
    row.iter().rposition(|&p| p > 0.0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_picks_first_maximum() {
        let mut rng = TensorRng::seed_from(1);
        let logits = Matrix::from_vec(1, 4, vec![0.1, 2.0, 2.0, -1.0]);
        assert_eq!(
            sample_token(&logits, Sampling::Greedy, &mut rng, &OpGuard::off()),
            1
        );
    }

    #[test]
    fn greedy_ignores_nan() {
        let mut rng = TensorRng::seed_from(2);
        let logits = Matrix::from_vec(1, 3, vec![f32::NAN, 0.5, 0.1]);
        assert_eq!(
            sample_token(&logits, Sampling::Greedy, &mut rng, &OpGuard::off()),
            1
        );
    }

    #[test]
    fn temperature_sampling_is_deterministic_given_rng_state() {
        let logits = Matrix::from_vec(1, 8, (0..8).map(|i| (i as f32).sin()).collect());
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(
                sample_token(&logits, Sampling::Temperature(0.8), &mut a, &OpGuard::off()),
                sample_token(&logits, Sampling::Temperature(0.8), &mut b, &OpGuard::off()),
            );
        }
    }

    #[test]
    fn low_temperature_concentrates_on_argmax() {
        let mut rng = TensorRng::seed_from(3);
        let logits = Matrix::from_vec(1, 4, vec![0.0, 5.0, 1.0, -2.0]);
        for _ in 0..64 {
            assert_eq!(
                sample_token(
                    &logits,
                    Sampling::Temperature(0.05),
                    &mut rng,
                    &OpGuard::off()
                ),
                1
            );
        }
    }

    #[test]
    fn zero_temperature_degrades_to_greedy() {
        let mut rng = TensorRng::seed_from(4);
        let logits = Matrix::from_vec(1, 3, vec![1.0, 3.0, 2.0]);
        assert_eq!(
            sample_token(
                &logits,
                Sampling::Temperature(0.0),
                &mut rng,
                &OpGuard::off()
            ),
            1
        );
    }

    #[test]
    fn greedy_all_nan_row_returns_index_zero() {
        // Regression: the old `row[best].is_nan()` arm advanced `best` to
        // every subsequent NaN, so an all-NaN row returned the LAST index.
        let mut rng = TensorRng::seed_from(6);
        let logits = Matrix::from_vec(1, 5, vec![f32::NAN; 5]);
        assert_eq!(
            sample_token(&logits, Sampling::Greedy, &mut rng, &OpGuard::off()),
            0
        );
    }

    #[test]
    fn round_off_tail_walks_back_to_last_positive_probability() {
        // Regression: the old tail returned `row.len() - 1` outright,
        // which can be a zero-probability (masked) token.
        assert_eq!(last_positive(&[0.7, 0.3, 0.0]), 1);
        assert_eq!(last_positive(&[0.2, 0.0, 0.8, 0.0, 0.0]), 2);
        assert_eq!(last_positive(&[0.0, 0.0]), 0);
    }

    #[test]
    fn masked_trailing_token_is_never_sampled() {
        use attn_tensor::ops::MASK_NEG;
        // The last token is masked to -INF-ish: its probability is exactly
        // zero, so no RNG draw — including round-off tails — may emit it.
        let logits = Matrix::from_vec(1, 4, vec![0.0, 0.0, 0.0, MASK_NEG]);
        for seed in 0..512 {
            let mut rng = TensorRng::seed_from(seed);
            for _ in 0..8 {
                let t = sample_token(
                    &logits,
                    Sampling::Temperature(1.0),
                    &mut rng,
                    &OpGuard::off(),
                );
                assert_ne!(t, 3, "seed {seed}: sampled a zero-probability token");
            }
        }
    }

    #[test]
    fn high_temperature_explores() {
        let mut rng = TensorRng::seed_from(5);
        let logits = Matrix::from_vec(1, 4, vec![0.0, 1.0, 0.5, 0.2]);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[sample_token(
                &logits,
                Sampling::Temperature(5.0),
                &mut rng,
                &OpGuard::off(),
            )] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "high temperature must reach every token"
        );
    }
}
