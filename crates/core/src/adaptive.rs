//! Adaptive ABFT detection frequencies (paper §4.5, Algorithm 1).
//!
//! Error arrivals per flop are modelled as independent Poisson processes per
//! error type (INF / NaN / near-INF). For a section `S = {OP_1 … OP_m}`:
//!
//! * `R_free(S)` — probability the whole section executes error-free;
//! * `R_e(S, j)` — probability of exactly one type-`e` error in `OP_j` and
//!   none elsewhere;
//! * `H_e_i = f + (1−f)·(1−φ_e_i)` — a type-`e` error in `OP_i` is survived
//!   either because ABFT ran (probability `f`) or because it was benign
//!   (probability `1−φ`, with `φ` the profiled non-trainable probability
//!   from Table 4). The paper's prose defines `H` this way; its formula
//!   prints `φ` where the complement is meant — we implement the coherent
//!   form and note the deviation here.
//! * `FC_S(f) = R_free + Σ_j Σ_e R_e(S,j)·H_e_j` — fault coverage;
//! * `FCE_S = ∂FC_S/∂t_S = Σ_j Σ_e R_e(S,j)·φ_e_j / T_S` — coverage gained
//!   per unit of ABFT time (again the coherent derivative of the paper's
//!   objective; the printed formula divides `FC_S(0)` by `T_S`).
//!
//! Algorithm 1 then greedily buys protection time for the most efficient
//! sections until the attention-level coverage target
//! `FC_att = Π_S FC_S ≥ FC_target` is met.

/// Per-flop arrival rates of the three extreme error types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRates {
    /// INF errors per flop.
    pub inf: f64,
    /// NaN errors per flop.
    pub nan: f64,
    /// near-INF errors per flop.
    pub near_inf: f64,
}

impl ErrorRates {
    /// Uniform rate across all three types — the Fig 10 sweep uses
    /// `errors_per_1e25_flops` from 13 to 20 for each type.
    pub fn uniform_per_1e25(errors_per_1e25_flops: f64) -> Self {
        let r = errors_per_1e25_flops / 1e25;
        Self {
            inf: r,
            nan: r,
            near_inf: r,
        }
    }

    fn get(&self, e: ErrorType) -> f64 {
        match e {
            ErrorType::Inf => self.inf,
            ErrorType::NaN => self.nan,
            ErrorType::NearInf => self.near_inf,
        }
    }
}

/// The three extreme error types of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorType {
    /// ±INF.
    Inf,
    /// NaN.
    NaN,
    /// Finite but huge.
    NearInf,
}

impl ErrorType {
    /// All three types.
    pub const ALL: [ErrorType; 3] = [ErrorType::Inf, ErrorType::NaN, ErrorType::NearInf];
}

/// One protected operation: its flop volume and profiled vulnerability per
/// error type (Table 4's `φ`).
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Display name, e.g. `"X·W_Q"`.
    pub name: String,
    /// Flops per execution of this op.
    pub flops: f64,
    /// P(non-trainable | INF error here).
    pub phi_inf: f64,
    /// P(non-trainable | NaN error here).
    pub phi_nan: f64,
    /// P(non-trainable | near-INF error here).
    pub phi_near_inf: f64,
}

impl OpProfile {
    fn phi(&self, e: ErrorType) -> f64 {
        match e {
            ErrorType::Inf => self.phi_inf,
            ErrorType::NaN => self.phi_nan,
            ErrorType::NearInf => self.phi_near_inf,
        }
    }
}

/// A protection section: its ops and the ABFT time cost of protecting one
/// execution of the section.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionProfile {
    /// Display name (`"S_AS"` etc.).
    pub name: String,
    /// Operations inside the section.
    pub ops: Vec<OpProfile>,
    /// ABFT overhead time (arbitrary consistent unit, e.g. ms) for one
    /// protected execution — the paper's `T_S`.
    pub abft_time: f64,
}

/// Poisson probability of `k` events given rate `lambda` and exposure
/// `flops`.
fn poisson_pmf(lambda: f64, flops: f64, k: u32) -> f64 {
    let mu = lambda * flops;
    if mu == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let mut log_p = -mu + k as f64 * mu.ln();
    for i in 1..=k {
        log_p -= (i as f64).ln();
    }
    log_p.exp()
}

/// Probability that every op in the section sees zero errors of any type.
fn r_free(section: &SectionProfile, rates: &ErrorRates) -> f64 {
    section
        .ops
        .iter()
        .map(|op| {
            ErrorType::ALL
                .iter()
                .map(|&e| poisson_pmf(rates.get(e), op.flops, 0))
                .product::<f64>()
        })
        .product()
}

/// Probability of exactly one type-`e` error in op `j` and zero errors
/// everywhere else in the section.
fn r_single(section: &SectionProfile, rates: &ErrorRates, j: usize, e: ErrorType) -> f64 {
    section
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            ErrorType::ALL
                .iter()
                .map(|&t| {
                    let k = if i == j && t == e { 1 } else { 0 };
                    poisson_pmf(rates.get(t), op.flops, k)
                })
                .product::<f64>()
        })
        .product()
}

/// Fault coverage of one section at detection frequency `f`.
fn fault_coverage(section: &SectionProfile, rates: &ErrorRates, f: f64) -> f64 {
    let f = f.clamp(0.0, 1.0);
    let mut fc = r_free(section, rates);
    for (j, op) in section.ops.iter().enumerate() {
        for &e in &ErrorType::ALL {
            let h = f + (1.0 - f) * (1.0 - op.phi(e));
            fc += r_single(section, rates, j, e) * h;
        }
    }
    fc
}

/// Attention-level fault coverage: the product over sections.
pub fn fault_coverage_attention(
    sections: &[SectionProfile],
    rates: &ErrorRates,
    freqs: &[f64],
) -> f64 {
    assert_eq!(sections.len(), freqs.len());
    sections
        .iter()
        .zip(freqs)
        .map(|(s, &f)| fault_coverage(s, rates, f))
        .product()
}

/// Fault-coverage efficiency: coverage gained per unit of ABFT time.
fn fce(section: &SectionProfile, rates: &ErrorRates) -> f64 {
    if section.abft_time <= 0.0 {
        return f64::INFINITY;
    }
    let mut gain = 0.0;
    for (j, op) in section.ops.iter().enumerate() {
        for &e in &ErrorType::ALL {
            gain += r_single(section, rates, j, e) * op.phi(e);
        }
    }
    gain / section.abft_time
}

/// Result of the frequency optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyPlan {
    /// Optimized per-section detection frequencies (same order as input).
    pub freqs: Vec<f64>,
    /// Expected ABFT time per execution, `Σ f_S·T_S`.
    pub expected_time: f64,
    /// Achieved attention-level fault coverage.
    pub achieved_fc: f64,
}

/// Uncovered-failure probability of one section at `f = 0`: the chance of a
/// single error somewhere in the section that leads to a non-trainable
/// state. This is the quantity Algorithm 1 spends ABFT time to remove.
pub fn section_deficit(section: &SectionProfile, rates: &ErrorRates) -> f64 {
    let mut d = 0.0;
    for (j, op) in section.ops.iter().enumerate() {
        for &e in &ErrorType::ALL {
            d += r_single(section, rates, j, e) * op.phi(e);
        }
    }
    d
}

/// Paper Algorithm 1: greedy allocation of ABFT time across sections.
///
/// Sections are sorted by FCE descending; protection time is bought from
/// the most efficient section first until the residual uncovered-failure
/// probability drops below `1 − fc_target` (or every section saturates at
/// `f = 1`). The marginal section gets a fractional frequency.
pub fn optimize_frequencies(
    sections: &[SectionProfile],
    rates: &ErrorRates,
    fc_target: f64,
) -> FrequencyPlan {
    let n = sections.len();
    let mut freqs = vec![0.0f64; n];
    let deficits: Vec<f64> = sections.iter().map(|s| section_deficit(s, rates)).collect();
    let target_residual = (1.0 - fc_target).max(0.0);
    let mut residual: f64 = deficits.iter().sum();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = fce(&sections[a], rates);
        let fb = fce(&sections[b], rates);
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });

    for &i in &order {
        if residual <= target_residual {
            break;
        }
        let d = deficits[i];
        if d <= 0.0 {
            continue;
        }
        let need = residual - target_residual;
        if need >= d {
            // Fully protect this section.
            freqs[i] = 1.0;
            residual -= d;
        } else {
            // Fractional protection suffices.
            freqs[i] = need / d;
            residual -= need;
        }
    }

    let expected_time = freqs
        .iter()
        .zip(sections)
        .map(|(&f, s)| f * s.abft_time)
        .sum();
    let achieved_fc = fault_coverage_attention(sections, rates, &freqs);
    FrequencyPlan {
        freqs,
        expected_time,
        achieved_fc,
    }
}

/// Build the three attention sections from GEMM flop counts and a Table-4
/// style vulnerability profile. `gemm_flops` are the per-execution flops of
/// `[X·W_Q, X·W_K, Q·Kᵀ, X·W_V, AP·V, CL·W_O]`; `abft_times` the measured
/// `T_S` of `[S_AS, S_CL, S_O]`.
pub fn attention_sections(
    gemm_flops: [f64; 6],
    phi: &VulnerabilityProfile,
    abft_times: [f64; 3],
) -> Vec<SectionProfile> {
    let op = |name: &str, flops: f64, p: (f64, f64, f64)| OpProfile {
        name: name.to_string(),
        flops,
        phi_inf: p.0,
        phi_nan: p.1,
        phi_near_inf: p.2,
    };
    vec![
        SectionProfile {
            name: "S_AS".to_string(),
            ops: vec![
                op("X·W_Q", gemm_flops[0], phi.q),
                op("X·W_K", gemm_flops[1], phi.k),
                op("Q·Kᵀ", gemm_flops[2], phi.attn_score),
            ],
            abft_time: abft_times[0],
        },
        SectionProfile {
            name: "S_CL".to_string(),
            ops: vec![
                op("X·W_V", gemm_flops[3], phi.v),
                op("AP·V", gemm_flops[4], phi.cl),
            ],
            abft_time: abft_times[1],
        },
        SectionProfile {
            name: "S_O".to_string(),
            ops: vec![op("CL·W_O", gemm_flops[5], phi.cl)],
            abft_time: abft_times[2],
        },
    ]
}

/// Per-site `(φ_INF, φ_NaN, φ_near-INF)` non-trainable probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VulnerabilityProfile {
    /// Q-site vulnerability.
    pub q: (f64, f64, f64),
    /// K-site vulnerability.
    pub k: (f64, f64, f64),
    /// V-site vulnerability.
    pub v: (f64, f64, f64),
    /// AS-site vulnerability.
    pub attn_score: (f64, f64, f64),
    /// CL-site vulnerability.
    pub cl: (f64, f64, f64),
}

impl VulnerabilityProfile {
    /// The Bert row of the paper's Table 4 (the profile §5.4 optimizes
    /// against).
    pub fn bert_table4() -> Self {
        Self {
            q: (1.0, 1.0, 0.459),
            k: (1.0, 1.0, 0.434),
            v: (1.0, 1.0, 0.063),
            attn_score: (1.0, 1.0, 0.002),
            cl: (1.0, 1.0, 0.006),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_sections() -> Vec<SectionProfile> {
        attention_sections(
            [1e9, 1e9, 5e8, 1e9, 5e8, 1e9],
            &VulnerabilityProfile::bert_table4(),
            [1.0, 0.8, 0.5],
        )
    }

    #[test]
    fn poisson_sums_to_one() {
        let total: f64 = (0..20).map(|k| poisson_pmf(1e-10, 1e10, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((poisson_pmf(1e-10, 1e10, 0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn poisson_zero_rate() {
        assert_eq!(poisson_pmf(0.0, 1e12, 0), 1.0);
        assert_eq!(poisson_pmf(0.0, 1e12, 3), 0.0);
    }

    #[test]
    fn r_free_decreases_with_rate() {
        let s = &toy_sections()[0];
        let lo = r_free(s, &ErrorRates::uniform_per_1e25(13.0));
        let hi = r_free(s, &ErrorRates::uniform_per_1e25(20.0));
        assert!(lo > hi);
        assert!(lo < 1.0 && lo > 0.999_999);
    }

    #[test]
    fn r_single_is_small_and_positive() {
        let s = &toy_sections()[0];
        let rates = ErrorRates::uniform_per_1e25(15.0);
        let p = r_single(s, &rates, 0, ErrorType::Inf);
        assert!(p > 0.0 && p < 1e-10);
    }

    #[test]
    fn coverage_increases_with_frequency() {
        let s = &toy_sections()[0];
        let rates = ErrorRates::uniform_per_1e25(20.0);
        let f0 = fault_coverage(s, &rates, 0.0);
        let f5 = fault_coverage(s, &rates, 0.5);
        let f1 = fault_coverage(s, &rates, 1.0);
        assert!(f0 <= f5 && f5 <= f1);
        assert!(f1 <= 1.0);
    }

    #[test]
    fn full_frequency_coverage_is_nearly_one() {
        let s = &toy_sections()[0];
        let rates = ErrorRates::uniform_per_1e25(20.0);
        let fc = fault_coverage(s, &rates, 1.0);
        // Only ≥2-error events remain uncovered.
        assert!(1.0 - fc < 1e-20);
    }

    #[test]
    fn fce_prefers_cheap_effective_sections() {
        let sections = toy_sections();
        let rates = ErrorRates::uniform_per_1e25(15.0);
        // S_AS has the most flops and vulnerability but also the highest
        // cost; just check FCE is finite and positive for all.
        for s in &sections {
            let e = fce(s, &rates);
            assert!(e.is_finite() && e > 0.0, "{}: {e}", s.name);
        }
    }

    #[test]
    fn optimizer_zero_target_means_zero_protection() {
        let sections = toy_sections();
        let rates = ErrorRates::uniform_per_1e25(13.0);
        // A target met even unprotected → no time bought.
        let plan = optimize_frequencies(&sections, &rates, 0.5);
        assert!(plan.freqs.iter().all(|&f| f == 0.0));
        assert_eq!(plan.expected_time, 0.0);
    }

    #[test]
    fn optimizer_impossible_target_saturates() {
        let sections = toy_sections();
        let rates = ErrorRates::uniform_per_1e25(20.0);
        let plan = optimize_frequencies(&sections, &rates, 1.0);
        assert!(plan.freqs.iter().all(|&f| (f - 1.0).abs() < 1e-12));
        let t_total: f64 = sections.iter().map(|s| s.abft_time).sum();
        assert!((plan.expected_time - t_total).abs() < 1e-12);
    }

    #[test]
    fn optimizer_meets_target_with_minimum_time() {
        let sections = toy_sections();
        let rates = ErrorRates::uniform_per_1e25(18.0);
        // Pick a target between the unprotected and fully-protected FC.
        let fc0 = fault_coverage_attention(&sections, &rates, &[0.0, 0.0, 0.0]);
        let fc1 = fault_coverage_attention(&sections, &rates, &[1.0, 1.0, 1.0]);
        let target = fc0 + 0.6 * (fc1 - fc0);
        let plan = optimize_frequencies(&sections, &rates, target);
        assert!(
            plan.achieved_fc >= target - 1e-15,
            "achieved {} < target {target}",
            plan.achieved_fc
        );
        // Not everything should be fully protected for an intermediate
        // target.
        assert!(plan.freqs.iter().any(|&f| f < 1.0));
    }

    #[test]
    fn optimizer_monotone_in_error_rate() {
        let sections = toy_sections();
        let target = 1.0 - 1e-14;
        let mut last_time = -1.0;
        for rate in [13.0, 15.0, 17.0, 20.0] {
            let plan = optimize_frequencies(&sections, &ErrorRates::uniform_per_1e25(rate), target);
            assert!(
                plan.expected_time >= last_time - 1e-12,
                "time must not decrease with error rate"
            );
            last_time = plan.expected_time;
        }
    }

    #[test]
    fn attention_sections_shape() {
        let s = toy_sections();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].ops.len(), 3);
        assert_eq!(s[1].ops.len(), 2);
        assert_eq!(s[2].ops.len(), 1);
    }
}
