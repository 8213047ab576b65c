//! Configuration for ABFT detection, correction, and protection scheduling.

/// The tunable tolerance of EEC-ABFT detection (paper §4.2). The paper's
/// two fixed thresholds are constants:
/// `T_near-INF` is [`attn_tensor::float::NEAR_INF_THRESHOLD`] and
/// `T_correct` is [`crate::eec::CORRECT_THRESHOLD`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbftConfig {
    /// Relative round-off tolerance `E` for checksum comparison: a checksum
    /// discrepancy counts as an error only when
    /// `|δ1| > detect_tol · (Σ|v| + 1)`.
    pub detect_tol: f32,
}

impl Default for AbftConfig {
    fn default() -> Self {
        Self { detect_tol: 5e-4 }
    }
}

impl AbftConfig {
    /// Round-off detection bound for a vector whose absolute sum is
    /// `sum_abs`.
    #[inline]
    pub fn detection_bound(&self, sum_abs: f32) -> f32 {
        self.detect_tol * (sum_abs + 1.0)
    }
}

/// Checksum encoding strategy of the standalone encoders
/// ([`CheckedMatrix::encode_cols`](crate::checked::CheckedMatrix::encode_cols)
/// and its row/both siblings).
///
/// One variant: every guarded product runs the paper's §4.6 fused path
/// (checksums packed into the operand, single-pass encoders). The enum
/// survives only as an argument of the `encode_*` constructors because the
/// out-of-workspace benchmark adapter re-exports it and passes
/// `Strategy::Fused`; it goes when that adapter changes. Fig 8's
/// "Non-OPT" column is measured per GEMM shape (standalone vs fused
/// encode) by the `fig8_opt_ablation` binary, not by a second route
/// through every product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Paper §4.6 optimizations: checksums are packed into the operand so
    /// one GEMM updates data and checksums together; encodings are single
    /// fused passes; detection is one parallel divergence-free sweep.
    Fused,
}

/// Which protection sections run, and at what frequency.
///
/// Frequencies follow paper §4.5: `f = 1.0` checks the section on every
/// execution, `f = 0.5` every other execution, `f = 0` never. Fractional
/// frequencies are realised deterministically by an execution counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectionConfig {
    /// Detection frequency for the attention-score section
    /// `S_AS = {X·W_Q, X·W_K, Q·Kᵀ}`.
    pub f_as: f64,
    /// Detection frequency for the context-layer section
    /// `S_CL = {X·W_V, AP·V}`.
    pub f_cl: f64,
    /// Detection frequency for the output section `S_O = {CL·W_O}`.
    pub f_o: f64,
    /// Detection frequency for the feed-forward section
    /// `S_FFN = {H·W_1, GELU(·)·W_2}` — the end-to-end extension beyond the
    /// paper's attention scope (cf. FT-Transformer, arXiv 2504.02211).
    pub f_ffn: f64,
    /// Detection/correction thresholds.
    pub abft: AbftConfig,
}

impl ProtectionConfig {
    /// Full protection: every section — the three attention sections *and*
    /// the FFN section — checked on every execution (the configuration
    /// evaluated in paper §5.2–5.3, extended end-to-end).
    pub fn full() -> Self {
        Self {
            f_as: 1.0,
            f_cl: 1.0,
            f_o: 1.0,
            f_ffn: 1.0,
            abft: AbftConfig::default(),
        }
    }

    /// Protection disabled everywhere — the unprotected baseline.
    pub fn off() -> Self {
        Self {
            f_as: 0.0,
            f_cl: 0.0,
            f_o: 0.0,
            f_ffn: 0.0,
            abft: AbftConfig::default(),
        }
    }

    /// The paper's original scope: attention sections at full frequency,
    /// FFN protection off. The Fig 7 overhead reproduction uses this so the
    /// attention-overhead comparison is not diluted by FFN work.
    pub fn attention_only() -> Self {
        Self {
            f_ffn: 0.0,
            ..Self::full()
        }
    }

    /// Custom per-section frequencies for the *attention* sections (the
    /// output of the adaptive optimizer, paper §4.5/§5.4). The optimizer
    /// models only the attention pipeline, so FFN protection is left off;
    /// opt back in with [`Self::ffn_frequency`].
    pub fn with_frequencies(f_as: f64, f_cl: f64, f_o: f64) -> Self {
        Self {
            f_as: f_as.clamp(0.0, 1.0),
            f_cl: f_cl.clamp(0.0, 1.0),
            f_o: f_o.clamp(0.0, 1.0),
            f_ffn: 0.0,
            ..Self::full()
        }
    }

    /// Builder: set the FFN-section detection frequency.
    pub fn ffn_frequency(mut self, f_ffn: f64) -> Self {
        self.f_ffn = f_ffn.clamp(0.0, 1.0);
        self
    }

    /// True when no section is ever checked.
    ///
    /// The `== 0.0` comparisons are intentional, not a float-comparison
    /// bug: frequencies are control values, and `0.0` is the exact sentinel
    /// meaning "never check" — [`FrequencyGate::tick`] accumulates `f`
    /// verbatim, so any `f > 0.0` crosses the firing threshold within
    /// `⌈1/f⌉` executions while `f == 0.0` keeps the accumulator frozen.
    /// There is no round-off to absorb: callers either pass the sentinel or
    /// they don't.
    pub fn is_off(&self) -> bool {
        [self.f_as, self.f_cl, self.f_o, self.f_ffn]
            .iter()
            .all(|&f| f == 0.0)
    }
}

/// Deterministic frequency gate: decides whether the `n`-th execution
/// (0-based) of a section with frequency `f` performs detection.
///
/// Uses an error-diffusion accumulator so that over `N` executions exactly
/// `⌈f·N⌉`-ish detections happen, evenly spread (e.g. `f = 0.5` → every
/// other execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrequencyGate {
    acc: f64,
}

impl FrequencyGate {
    /// Advance one execution; returns true when detection should run.
    pub fn tick(&mut self, f: f64) -> bool {
        self.acc += f.clamp(0.0, 1.0);
        if self.acc >= 1.0 - 1e-12 {
            self.acc -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_thresholds() {
        assert_eq!(attn_tensor::float::NEAR_INF_THRESHOLD, 1e10);
        assert_eq!(crate::eec::CORRECT_THRESHOLD, 1e5);
        assert_eq!(AbftConfig::default().detect_tol, 5e-4);
    }

    #[test]
    fn detection_bound_scales_with_magnitude() {
        let c = AbftConfig::default();
        assert!(c.detection_bound(1000.0) > c.detection_bound(1.0));
        assert!(c.detection_bound(0.0) > 0.0);
    }

    #[test]
    fn full_and_off_configs() {
        assert!(!ProtectionConfig::full().is_off());
        assert!(ProtectionConfig::off().is_off());
    }

    #[test]
    fn with_frequencies_clamps() {
        let c = ProtectionConfig::with_frequencies(1.5, -0.2, 0.3);
        assert_eq!(c.f_as, 1.0);
        assert_eq!(c.f_cl, 0.0);
        assert_eq!(c.f_o, 0.3);
        assert_eq!(c.f_ffn, 0.0);
        assert_eq!(c.ffn_frequency(2.0).f_ffn, 1.0);
    }

    #[test]
    fn attention_only_disables_ffn_section() {
        let c = ProtectionConfig::attention_only();
        assert_eq!(c.f_ffn, 0.0);
        assert!(!c.is_off(), "attention sections still fire");
        // A config that only protects the FFN is not "off" either.
        let ffn_only = ProtectionConfig::off().ffn_frequency(1.0);
        assert!(!ffn_only.is_off());
    }

    #[test]
    fn is_off_matches_tick_behaviour() {
        // `is_off` is the one statement of "no gate ever fires": with only
        // one section's frequency set, the config is off exactly when that
        // section's gate never fires.
        for f in [0.0, 1e-3, 0.5, 1.0] {
            let cfg = ProtectionConfig::off().ffn_frequency(f);
            let mut g = FrequencyGate::default();
            assert_eq!(
                (0..2000).any(|_| g.tick(cfg.f_ffn)),
                !cfg.is_off(),
                "gate at f={f}"
            );
        }
    }

    #[test]
    fn gate_full_frequency_always_fires() {
        let mut g = FrequencyGate::default();
        assert!((0..100).all(|_| g.tick(1.0)));
    }

    #[test]
    fn gate_zero_never_fires() {
        let mut g = FrequencyGate::default();
        assert!((0..100).all(|_| !g.tick(0.0)));
    }

    #[test]
    fn gate_half_fires_every_other() {
        let mut g = FrequencyGate::default();
        let fired: Vec<bool> = (0..10).map(|_| g.tick(0.5)).collect();
        assert_eq!(fired.iter().filter(|&&b| b).count(), 5);
        // Evenly spread: no two consecutive detections.
        for w in fired.windows(2) {
            assert!(!(w[0] && w[1]));
        }
    }

    #[test]
    fn gate_fractional_rate_converges() {
        let mut g = FrequencyGate::default();
        let n = 1000;
        let fired = (0..n).filter(|_| g.tick(0.3)).count();
        assert!((fired as f64 - 300.0).abs() <= 1.0, "fired {fired}");
    }
}
