//! Protected multi-head attention: the three ABFT sections with checksum
//! passing (paper §4.4, Fig 5), composed from the reusable
//! [`GuardedSection`] pipeline. This module holds the attention's types
//! and entry points; the one body lives in [`crate::decode`], and the
//! training [`ProtectedAttention::forward`] is its `extend` over an empty
//! KV cache with the backward tape recorded — training, prefill and decode
//! run the same sections.
//!
//! The six attention GEMMs are grouped into sections so that every section
//! tolerates one fault, wherever it strikes:
//!
//! * **S_AS** `{X·W_Q, X·W_K, Q·Kᵀ}` — `X`'s column encoding rides inside
//!   the projection GEMMs' packing pass (fused entry, §4.6); `Q` and `K`
//!   inherit column checksums through the fused GEMMs and are verified
//!   where they leave their projection. `AS = Q·Kᵀ` arrives with *both*
//!   borders (`Q`'s column checksums ride through, the row checksums come
//!   from the cached keys' checksum tails) and is checked at the section's
//!   delayed detection point.
//! * **S_CL** `{X·W_V, AP·V}` — one `V` projection for all heads, entered
//!   like `Q` and `K`, each head's rows verified before they join the cache
//!   with their inline row-checksum pair; `AP` (re-encoded after the
//!   nonlinear softmax, inside the fused `AP·V`) carries column checksums;
//!   `CL = AP·V` has both borders.
//! * **S_O** `{CL·W_O}` — `CL`'s column checksums ride through the output
//!   GEMM; `O` is protected column-side (1R residue from CL plus 0D faults).
//!
//! `Q`, `K` and `V` are healed eagerly through their own column checksums:
//! the cache and the backward pass reuse them, where a surviving extreme
//! value would re-poison every later row or the gradients.
//!
//! Fault-injection campaigns hook into the pipeline between every GEMM and
//! its detection point via [`FaultSite`] callbacks.

use crate::checked::CheckedMatrix;
use crate::config::ProtectionConfig;
use crate::decode::{extend, AttnKvCache};
use crate::report::AbftReport;
use crate::section::{ForwardCtx, GuardedSection};
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;

/// The GEMM (or softmax) outputs a fault can strike, mirroring the paper's
/// injection sites (Table 2 / Table 4 rows) plus the FFN extension sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttnOp {
    /// Output of `X·W_Q`.
    Q,
    /// Output of `X·W_K`.
    K,
    /// Output of `X·W_V`.
    V,
    /// Output of `Q·Kᵀ` (pre-softmax attention scores).
    AS,
    /// Output of `AP·V` (per-head context layer).
    CL,
    /// Output of `CL·W_O`.
    O,
    /// Output of the FFN expansion GEMM `H·W_1` (pre-GELU) — an
    /// end-to-end extension site outside the paper's attention scope.
    Ffn1,
    /// Output of the FFN contraction GEMM `GELU(·)·W_2`.
    Ffn2,
}

impl AttnOp {
    /// All *attention* injectable sites, in pipeline order.
    pub const ALL: [AttnOp; 6] = [
        AttnOp::Q,
        AttnOp::K,
        AttnOp::V,
        AttnOp::AS,
        AttnOp::CL,
        AttnOp::O,
    ];

    /// The five sites of the paper's vulnerability study (Table 4).
    pub const STUDY: [AttnOp; 5] = [AttnOp::Q, AttnOp::K, AttnOp::V, AttnOp::AS, AttnOp::CL];

    /// The two FFN GEMM outputs protected by the end-to-end extension.
    pub const FFN: [AttnOp; 2] = [AttnOp::Ffn1, AttnOp::Ffn2];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AttnOp::Q => "Q",
            AttnOp::K => "K",
            AttnOp::V => "V",
            AttnOp::AS => "AS",
            AttnOp::CL => "CL",
            AttnOp::O => "O",
            AttnOp::Ffn1 => "FFN1",
            AttnOp::Ffn2 => "FFN2",
        }
    }
}

/// Where a hook fires: the op plus the head for per-head matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// Which GEMM output is exposed.
    pub op: AttnOp,
    /// Head index for per-head sites (`AS`, `CL`, `V`); `None` for the
    /// model-wide `Q`, `K`, `O` and FFN matrices.
    pub head: Option<usize>,
}

/// Mutable callback giving campaigns access to each GEMM output *before*
/// its section's detection runs.
pub type FaultHook<'a> = &'a mut dyn FnMut(FaultSite, &mut CheckedMatrix);

/// Which sections perform detection in this execution (the per-execution
/// realisation of the §4.5 frequencies, handed out by
/// [`crate::policy::ProtectionPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionToggles {
    /// Run S_AS protection.
    pub s_as: bool,
    /// Run S_CL protection.
    pub s_cl: bool,
    /// Run S_O protection.
    pub s_o: bool,
    /// Run S_FFN protection (the feed-forward extension; ignored by the
    /// attention-only forward).
    pub s_ffn: bool,
}

impl SectionToggles {
    /// Protect everything.
    pub fn all() -> Self {
        Self {
            s_as: true,
            s_cl: true,
            s_o: true,
            s_ffn: true,
        }
    }

    /// Protect nothing.
    pub fn none() -> Self {
        Self {
            s_as: false,
            s_cl: false,
            s_o: false,
            s_ffn: false,
        }
    }

    /// Any section active?
    pub fn any(&self) -> bool {
        self.s_as || self.s_cl || self.s_o || self.s_ffn
    }
}

/// Learnable parameters of one multi-head attention block.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionWeights {
    /// Model width.
    pub hidden: usize,
    /// Number of attention heads (must divide `hidden`).
    pub heads: usize,
    /// Query projection, `hidden × hidden`.
    pub wq: Matrix,
    /// Key projection.
    pub wk: Matrix,
    /// Value projection.
    pub wv: Matrix,
    /// Output projection.
    pub wo: Matrix,
    /// Query bias.
    pub bq: Vec<f32>,
    /// Key bias.
    pub bk: Vec<f32>,
    /// Value bias.
    pub bv: Vec<f32>,
    /// Output bias.
    pub bo: Vec<f32>,
}

impl AttentionWeights {
    /// Xavier-initialised weights.
    ///
    /// # Panics
    /// Panics when `heads` does not divide `hidden`.
    pub fn random(hidden: usize, heads: usize, rng: &mut TensorRng) -> Self {
        assert!(
            heads > 0 && hidden.is_multiple_of(heads),
            "heads must divide hidden"
        );
        Self {
            hidden,
            heads,
            wq: rng.xavier_matrix(hidden, hidden),
            wk: rng.xavier_matrix(hidden, hidden),
            wv: rng.xavier_matrix(hidden, hidden),
            wo: rng.xavier_matrix(hidden, hidden),
            bq: vec![0.0; hidden],
            bk: vec![0.0; hidden],
            bv: vec![0.0; hidden],
            bo: vec![0.0; hidden],
        }
    }

    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// Borrowed view of one attention block's parameters: built per call from
/// wherever the parameters already live (`attn_model`'s `Param`s, an
/// [`AttentionWeights`]), so neither a training forward nor a decoded token
/// pays a `hidden × hidden` weight-snapshot clone per layer.
#[derive(Clone, Copy)]
pub struct AttentionWeightsRef<'a> {
    /// Model width.
    pub hidden: usize,
    /// Head count (must divide `hidden`).
    pub heads: usize,
    /// Query projection, `hidden × hidden`.
    pub wq: &'a Matrix,
    /// Key projection.
    pub wk: &'a Matrix,
    /// Value projection.
    pub wv: &'a Matrix,
    /// Output projection.
    pub wo: &'a Matrix,
    /// Query bias.
    pub bq: &'a [f32],
    /// Key bias.
    pub bk: &'a [f32],
    /// Value bias.
    pub bv: &'a [f32],
    /// Output bias.
    pub bo: &'a [f32],
}

impl AttentionWeightsRef<'_> {
    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

impl<'a> From<&'a AttentionWeights> for AttentionWeightsRef<'a> {
    fn from(w: &'a AttentionWeights) -> Self {
        Self {
            hidden: w.hidden,
            heads: w.heads,
            wq: &w.wq,
            wk: &w.wk,
            wv: &w.wv,
            wo: &w.wo,
            bq: &w.bq,
            bk: &w.bk,
            bv: &w.bv,
            bo: &w.bo,
        }
    }
}

/// Activations cached for the backward pass and for propagation studies.
///
/// All values are post-correction when protection ran, raw otherwise.
#[derive(Debug, Clone)]
pub struct AttnCache {
    /// Block input, `seq × hidden`.
    pub x: Matrix,
    /// Query activations (post bias), `seq × hidden`.
    pub q: Matrix,
    /// Key activations, `seq × hidden`.
    pub k: Matrix,
    /// Value activations, `seq × hidden`.
    pub v: Matrix,
    /// Pre-softmax scaled (and masked) attention scores per head,
    /// `seq × seq` each.
    pub scores: Vec<Matrix>,
    /// Post-softmax attention probabilities per head, `seq × seq` each.
    pub ap: Vec<Matrix>,
    /// Merged context layer, `seq × hidden`.
    pub cl: Matrix,
}

/// Forward output: the attention block result plus the backward cache.
#[derive(Debug, Clone)]
pub struct AttnForward {
    /// `seq × hidden` attention output (post `W_O` and bias).
    pub output: Matrix,
    /// Cached activations.
    pub cache: AttnCache,
}

/// Per-call options for [`ProtectedAttention::forward`] — the borrowed
/// pieces of a [`ForwardCtx`] minus the report.
pub struct ForwardOptions<'a> {
    /// Additive attention mask (`seq × seq`), e.g. causal or local-banded.
    pub mask: Option<&'a Matrix>,
    /// Per-execution section toggles (from the frequency gates).
    pub toggles: SectionToggles,
    /// Optional fault-injection hook.
    pub hook: Option<FaultHook<'a>>,
}

impl Default for ForwardOptions<'_> {
    fn default() -> Self {
        Self {
            mask: None,
            toggles: SectionToggles::all(),
            hook: None,
        }
    }
}

/// A multi-head attention block wrapped with ATTNChecker protection.
#[derive(Debug, Clone)]
pub struct ProtectedAttention {
    /// Block parameters.
    pub weights: AttentionWeights,
    /// Protection policy.
    pub config: ProtectionConfig,
}

impl ProtectedAttention {
    /// Wrap weights with a protection policy.
    pub fn new(weights: AttentionWeights, config: ProtectionConfig) -> Self {
        Self { weights, config }
    }

    /// Convenience forward: full protection, no mask, no hook.
    pub fn forward_simple(&self, x: &Matrix, report: &mut AbftReport) -> AttnForward {
        self.forward(x, ForwardOptions::default(), report)
    }

    /// Run the protected attention pipeline on `x` (`seq × hidden`) — the
    /// training forward: [`crate::decode::extend`] over an empty KV cache,
    /// recording the backward tape. `opts` carries the mask (`seq × seq`;
    /// `None` is bidirectional), per-execution section toggles and the
    /// fault-injection hook; an unprotected run is a config of
    /// [`ProtectionConfig::off`], not a different function.
    ///
    /// # Panics
    /// Panics if `x.cols() != hidden`.
    pub fn forward(
        &self,
        x: &Matrix,
        opts: ForwardOptions<'_>,
        report: &mut AbftReport,
    ) -> AttnForward {
        let mut ctx = ForwardCtx {
            mask: opts.mask,
            toggles: opts.toggles,
            hook: opts.hook,
            report,
        };
        let g = GuardedSection::guard_step(&self.config);
        let mut kv = AttnKvCache::for_attention(self);
        let w = (&self.weights).into();
        let (output, tape) = extend(&w, &self.config, x, &mut kv, &mut ctx, &g, true);
        ctx.report.absorb_op_guard(g.take_stats());
        AttnForward {
            output,
            cache: tape.expect("a taped extend returns its tape"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use attn_fault::FaultKind;
    use attn_tensor::ops::causal_mask;

    /// Each attention section alone, with the sites its own detection point
    /// must cover — the table behind the isolation tests here and in
    /// [`crate::decode`].
    pub(crate) fn section_isolation_cases() -> [(SectionToggles, &'static [AttnOp]); 3] {
        let only = |s_as, s_cl, s_o| SectionToggles {
            s_as,
            s_cl,
            s_o,
            s_ffn: false,
        };
        [
            (
                only(true, false, false),
                &[AttnOp::Q, AttnOp::K, AttnOp::AS],
            ),
            (only(false, true, false), &[AttnOp::V, AttnOp::CL]),
            (only(false, false, true), &[AttnOp::O]),
        ]
    }

    fn setup(seq: usize, hidden: usize, heads: usize) -> (Matrix, ProtectedAttention) {
        let mut rng = TensorRng::seed_from(42);
        let w = AttentionWeights::random(hidden, heads, &mut rng);
        let x = rng.normal_matrix(seq, hidden, 0.5);
        (x, ProtectedAttention::new(w, ProtectionConfig::full()))
    }

    #[test]
    fn protected_matches_unprotected_when_fault_free() {
        let (x, attn) = setup(12, 32, 4);
        let unprotected = ProtectedAttention::new(attn.weights.clone(), ProtectionConfig::off());
        let mut r1 = AbftReport::default();
        let mut r2 = AbftReport::default();
        let a = attn.forward_simple(&x, &mut r1);
        let b = unprotected.forward(
            &x,
            ForwardOptions {
                toggles: SectionToggles::none(),
                ..Default::default()
            },
            &mut r2,
        );
        assert!(
            a.output.approx_eq(&b.output, 1e-4, 1e-4),
            "protection must not perturb fault-free results"
        );
        assert!(r1.is_quiet(), "no detections expected: {r1}");
    }

    #[test]
    fn masked_forward_respects_causality() {
        let (x, attn) = setup(8, 16, 2);
        let mask = causal_mask(8);
        let mut r = AbftReport::default();
        let out = attn.forward(
            &x,
            ForwardOptions {
                mask: Some(&mask),
                ..Default::default()
            },
            &mut r,
        );
        // Attention probabilities above the diagonal must be ~0.
        for ap in &out.cache.ap {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    assert!(ap[(i, j)] < 1e-6, "ap[{i},{j}] = {}", ap[(i, j)]);
                }
            }
        }
        assert!(r.is_quiet());
    }

    fn inject_then_check(op: AttnOp, kind: FaultKind, toggles: SectionToggles) {
        let (x, attn) = setup(10, 32, 4);
        // Ground truth from a clean protected run.
        let mut quiet = AbftReport::default();
        let clean = attn.forward_simple(&x, &mut quiet);

        let mut fired = false;
        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            let right_site = site.op == op && (site.head.is_none() || site.head == Some(1));
            if right_site && !fired {
                fired = true;
                let (r, c) = (m.rows() / 2, m.cols() / 3);
                let old = m.get(r, c);
                m.set(r, c, kind.apply(old));
            }
        };
        let mut report = AbftReport::default();
        let out = attn.forward(
            &x,
            ForwardOptions {
                mask: None,
                toggles,
                hook: Some(&mut hook),
            },
            &mut report,
        );
        assert!(fired, "hook never fired for {op:?}");
        assert!(
            out.output.approx_eq(&clean.output, 1e-2, 1e-2),
            "{op:?}/{kind:?}: output diverged after correction; report {report}"
        );
        assert!(out.output.all_finite());
        assert!(
            report.correction_count() > 0,
            "{op:?}/{kind:?}: no corrections"
        );
        assert_eq!(report.unrecovered, 0);
    }

    #[test]
    fn corrects_inf_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::Inf, SectionToggles::all());
        }
    }

    #[test]
    fn corrects_nan_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::NaN, SectionToggles::all());
        }
    }

    #[test]
    fn corrects_near_inf_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::NearInf, SectionToggles::all());
        }
    }

    #[test]
    fn corrects_neg_inf_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::NegInf, SectionToggles::all());
        }
    }

    #[test]
    fn each_section_alone_corrects_its_own_sites() {
        // One detection point per section: with the other two gated off, a
        // section still has to catch every fault striking its own GEMMs —
        // what fails when a `detect … absorb` block goes missing.
        for (toggles, sites) in section_isolation_cases() {
            for &op in sites {
                inject_then_check(op, FaultKind::Inf, toggles);
            }
        }
    }

    #[test]
    fn unprotected_run_propagates_fault_to_output() {
        let (x, attn) = setup(10, 32, 4);
        let off = ProtectedAttention::new(attn.weights.clone(), ProtectionConfig::off());
        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            if site.op == AttnOp::Q {
                m.set(2, 5, f32::NAN);
            }
        };
        let mut report = AbftReport::default();
        let out = off.forward(
            &x,
            ForwardOptions {
                mask: None,
                toggles: SectionToggles::none(),
                hook: Some(&mut hook),
            },
            &mut report,
        );
        assert!(
            !out.output.all_finite(),
            "NaN must reach the output unprotected"
        );
        assert_eq!(report.correction_count(), 0);
    }

    #[test]
    fn eager_heal_reaches_the_tape() {
        // Q, K and each head's V are healed where they leave their
        // projection; the backward pass reads the tape, so its copies must
        // be the healed bits — a `v` taken before the per-head heal fails.
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (x, attn) = setup(10, 32, 4);
        let mut quiet = AbftReport::default();
        let clean = attn.forward_simple(&x, &mut quiet);
        let sites = [(AttnOp::Q, 0), (AttnOp::K, 0)]
            .into_iter()
            .chain((0..4).map(|h| (AttnOp::V, h)));
        for (op, head) in sites {
            let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                if site.op == op && site.head.unwrap_or(head) == head {
                    m.set(3, 7, f32::INFINITY);
                }
            };
            let mut report = AbftReport::default();
            let out = attn.forward(
                &x,
                ForwardOptions {
                    mask: None,
                    toggles: SectionToggles::all(),
                    hook: Some(&mut hook),
                },
                &mut report,
            );
            assert_eq!(report.correction_count(), 1, "{op:?} head {head}: {report}");
            let tape = [&out.cache.q, &out.cache.k, &out.cache.v, &out.output];
            let want = [
                &clean.cache.q,
                &clean.cache.k,
                &clean.cache.v,
                &clean.output,
            ];
            for (i, (got, want)) in tape.into_iter().zip(want).enumerate() {
                assert!(bits(got) == bits(want), "{op:?} head {head}: tape[{i}]");
            }
        }
        // Two extreme cells in one column of one head's V: column checksums
        // locate neither, and the struck rows join the cache with a pair
        // derived from the corrupt data, so `CL`'s borders agree with them.
        // The heal is the last point that can tell, and it must report it.
        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            if site.op == AttnOp::V && site.head == Some(2) {
                for r in [2, 6] {
                    m.set(r, 5, FaultKind::NearInf.apply(m.get(r, 5)));
                }
            }
        };
        let mut report = AbftReport::default();
        let _ = attn.forward(
            &x,
            ForwardOptions {
                mask: None,
                toggles: SectionToggles::all(),
                hook: Some(&mut hook),
            },
            &mut report,
        );
        assert!(report.unrecovered >= 1, "two-cell V column: {report}");
    }

    #[test]
    fn toggled_off_section_skips_detection() {
        let (x, attn) = setup(8, 16, 2);
        let mut report = AbftReport::default();
        let _ = attn.forward(
            &x,
            ForwardOptions {
                mask: None,
                toggles: SectionToggles {
                    s_as: true,
                    s_cl: false,
                    s_o: false,
                    s_ffn: false,
                },
                hook: None,
            },
            &mut report,
        );
        assert_eq!(report.sections_checked, 1);
        assert_eq!(report.sections_skipped, 2);
    }

    #[test]
    fn output_shape_and_cache_shapes() {
        let (x, attn) = setup(9, 24, 3);
        let mut r = AbftReport::default();
        let out = attn.forward_simple(&x, &mut r);
        assert_eq!((out.output.rows(), out.output.cols()), (9, 24));
        assert_eq!((out.cache.q.rows(), out.cache.q.cols()), (9, 24));
        assert_eq!(out.cache.ap.len(), 3);
        assert_eq!((out.cache.ap[0].rows(), out.cache.ap[0].cols()), (9, 9));
        assert_eq!((out.cache.cl.rows(), out.cache.cl.cols()), (9, 24));
        // AP rows are probability distributions.
        for h in 0..3 {
            for r in 0..9 {
                let s: f32 = out.cache.ap[h].row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }
}
