//! Protected multi-head attention: the three ABFT sections with checksum
//! passing (paper §4.4, Fig 5), composed from the reusable
//! [`GuardedSection`] pipeline in [`crate::section`].
//!
//! The six attention GEMMs are grouped into sections so that every section
//! tolerates one fault, wherever it strikes:
//!
//! * **S_AS** `{X·W_Q, X·W_K, Q·Kᵀ}` — `X`'s column encoding rides inside
//!   the projection GEMMs' packing pass (fused entry, §4.6); `Q` and
//!   `K` inherit column checksums through the fused GEMMs; `AS = Q·Kᵀ`
//!   arrives with *both* borders (K's column checksums transpose into AS's
//!   row checksums). Detection is **delayed** to AS: a 0D fault in `Q`
//!   surfaces as a deterministic 1R there, a 0D fault in `K` as a 1C with
//!   poisoned column checksums — both healed by [`crate::detect::full_correct`].
//! * **S_CL** `{X·W_V, AP·V}` — each head's slice of `W_V` is row-encoded,
//!   so `V` inherits row checksums; `AP` (re-encoded after the nonlinear
//!   softmax) carries column checksums; `CL = AP·V` has both borders.
//! * **S_O** `{CL·W_O}` — `CL`'s column checksums ride through the output
//!   GEMM; `O` is protected column-side (1R residue from CL plus 0D faults).
//!
//! When a section's detection fires, the *source* operand matrices (`Q`,
//! `K`, `V`) are also healed through their own inherited checksums — they
//! are reused by the backward pass, where a surviving extreme value would
//! re-poison training.
//!
//! Fault-injection campaigns hook into the pipeline between every GEMM and
//! its detection point via [`FaultSite`] callbacks.

use crate::checked::CheckedMatrix;
use crate::config::ProtectionConfig;
use crate::report::{AbftReport, SectionId};
use crate::section::{replay_nn, ForwardCtx, GuardedSection};
use attn_tensor::guard::softmax_rows_checked;
use attn_tensor::ops::apply_additive_mask;
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

    /// Run the protected attention pipeline on `x` (`seq × hidden`): the
    /// free [`forward`] over the owned weights, with `opts` and `report`
    /// as its [`ForwardCtx`].
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
        forward(&(&self.weights).into(), &self.config, x, &mut ctx)
    }
}

/// Run the protected attention pipeline on `x` (`seq × hidden`) over
/// borrowed weights — the one training forward, whose rows
/// [`crate::decode::extend`] reproduces bit for bit over a KV cache when
/// serving. `ctx` carries the mask,
/// per-execution section toggles, the fault-injection hook, and the report;
/// an unprotected run is `config` = [`ProtectionConfig::off`], not a
/// different function.
///
/// # Panics
/// Panics if `x.cols() != hidden`.
#[allow(clippy::needless_range_loop)] // head index drives several buffers
pub fn forward(
    w: &AttentionWeightsRef<'_>,
    config: &ProtectionConfig,
    x: &Matrix,
    ctx: &mut ForwardCtx<'_, '_>,
) -> AttnForward {
    assert_eq!(x.cols(), w.hidden, "input width mismatch");
    let seq = x.rows();
    let heads = w.heads;
    let d = w.head_dim();
    let scale = 1.0 / (d as f32).sqrt();
    let mask = ctx.mask;

    let s_as = GuardedSection::begin(
        SectionId::AttentionScore,
        config,
        ctx.toggles.s_as,
        ctx.report,
    );
    let s_cl = GuardedSection::begin(
        SectionId::ContextLayer,
        config,
        ctx.toggles.s_cl,
        ctx.report,
    );
    let s_o = GuardedSection::begin(SectionId::Output, config, ctx.toggles.s_o, ctx.report);
    // Non-GEMM scope: screens the per-head softmax outputs (the one
    // nonlinearity inside attention) and heals from the cached scores.
    let op_guard = GuardedSection::guard_step(config);

    // ------------------------------------------------ section S_AS
    // X enters the section through fused encode-and-multiply: its
    // column-checksum projections accumulate inside each projection
    // GEMM's packing pass, and Q and K inherit the riding checksums —
    // no standalone encode sweep over X, no augmented copy.
    let mut q = s_as.gemm(x, w.wq);
    let mut k = s_as.gemm(x, w.wk);
    q.add_bias(w.bq);
    k.add_bias(w.bk);
    ctx.fire(
        FaultSite {
            op: AttnOp::Q,
            head: None,
        },
        &mut q,
    );
    ctx.fire(
        FaultSite {
            op: AttnOp::K,
            head: None,
        },
        &mut k,
    );

    // Heal the source operands lazily at the first delayed detection: Q
    // and K are cached for backward, where an uncorrected 0D extreme
    // value would re-poison the gradients — and the exact refinement of
    // AS below needs clean operands to replay against.
    let mut qk_healed = false;

    let mut scores_cache = Vec::with_capacity(heads);
    let mut ap_mats: Vec<Matrix> = Vec::with_capacity(heads);
    for h in 0..heads {
        let qh = q.slice_cols(h * d, (h + 1) * d);
        let kh = k.slice_cols(h * d, (h + 1) * d);
        let mut as_h = s_as.gemm_nt(&qh, &kh);
        as_h.scale_inplace(scale);
        ctx.fire(
            FaultSite {
                op: AttnOp::AS,
                head: Some(h),
            },
            &mut as_h,
        );

        let mut det = s_as.detect(&mut as_h, h);
        if det.detections() > 0 {
            if !qk_healed {
                qk_healed = true;
                s_as.heal_operand_cols(ctx.report, &mut q, usize::MAX, |r, c| {
                    replay_nn(x.row(r), |kk| w.wq[(kk, c)]) + w.bq[c]
                });
                s_as.heal_operand_cols(ctx.report, &mut k, usize::MAX, |r, c| {
                    replay_nn(x.row(r), |kk| w.wk[(kk, c)]) + w.bk[c]
                });
            }
            let lo = h * d;
            det.refine(&mut as_h, |r, c| {
                replay_nn(&q.logical_row(r)[lo..lo + d], |kk| {
                    k.logical_row(c)[lo + kk]
                }) * scale
            });
        }
        det.absorb(ctx.report);

        // Leave the checksummed region: mask + softmax are nonlinear.
        // AP stays plain here; its re-encoding rides inside the fused
        // `AP·V` GEMM that re-enters S_CL below. The cached post-mask
        // scores double as the op guard's preserved input: rows whose
        // probabilities fail the sum-to-one screen recompute from them.
        let scores = s_cl.exit_cols(&as_h, |as_mat| {
            if let Some(m) = mask {
                apply_additive_mask(as_mat, m);
            }
        });
        ap_mats.push(softmax_rows_checked(&scores, &op_guard));
        scores_cache.push(scores);
    }

    // ------------------------------------------------ section S_CL
    let mut cl_blocks = Vec::with_capacity(heads);
    let mut v_cols: Vec<Matrix> = Vec::with_capacity(heads);
    for h in 0..heads {
        let wv_h = w.wv.submatrix(0, w.hidden, h * d, (h + 1) * d);
        let bv_h = &w.bv[h * d..(h + 1) * d];
        // W_V's per-head slice enters through the row-side fused
        // encode: its row-checksum projections accumulate inside the
        // `X·W_V` packing pass and ride into V.
        let mut v_h = s_cl.gemm_encode_rows(x, &wv_h);
        v_h.add_bias(bv_h);
        ctx.fire(
            FaultSite {
                op: AttnOp::V,
                head: Some(h),
            },
            &mut v_h,
        );

        // AP re-enters the checksummed region inside the fused GEMM:
        // its column encoding (the old standalone re-encode sweep
        // after softmax) accumulates in this product's packing pass.
        let mut cl_h = s_cl.gemm(&ap_mats[h], &v_h);
        ctx.fire(
            FaultSite {
                op: AttnOp::CL,
                head: Some(h),
            },
            &mut cl_h,
        );
        let mut det = s_cl.detect(&mut cl_h, h);
        if det.detections() > 0 {
            if v_h.has_row_checksums() {
                // Heal the cached V the same way Q/K are healed.
                s_cl.heal_operand_rows(ctx.report, &mut v_h, h, |r, c| {
                    replay_nn(x.row(r), |kk| wv_h[(kk, c)]) + bv_h[c]
                });
            }
            let ap = &ap_mats[h];
            det.refine(&mut cl_h, |r, c| replay_nn(ap.row(r), |kk| v_h.get(kk, c)));
        }
        det.absorb(ctx.report);
        v_cols.push(v_h.logical());
        cl_blocks.push(cl_h);
    }
    let cl_merged = CheckedMatrix::concat_cols(&cl_blocks);

    // ------------------------------------------------ section S_O
    // CL is inherited from S_CL: ride its checksums when present,
    // fused-encode on entry when S_O is active but S_CL was skipped.
    let mut o = s_o.gemm(&cl_merged, w.wo);
    o.add_bias(w.bo);
    ctx.fire(
        FaultSite {
            op: AttnOp::O,
            head: None,
        },
        &mut o,
    );
    let mut det = s_o.detect(&mut o, usize::MAX);
    if det.fixes() > 0 {
        det.refine(&mut o, |r, c| {
            replay_nn(cl_merged.logical_row(r), |kk| w.wo[(kk, c)]) + w.bo[c]
        });
    }
    det.absorb(ctx.report);
    ctx.report.absorb_op_guard(op_guard.take_stats());

    // Assemble caches (all post-correction).
    let q_mat = q.logical();
    let k_mat = k.logical();
    let mut v_mat = Matrix::zeros(seq, w.hidden);
    for (h, vh) in v_cols.iter().enumerate() {
        for r in 0..seq {
            v_mat.row_mut(r)[h * d..(h + 1) * d].copy_from_slice(vh.row(r));
        }
    }
    AttnForward {
        output: o.logical(),
        cache: AttnCache {
            x: x.clone(),
            q: q_mat,
            k: k_mat,
            v: v_mat,
            scores: scores_cache,
            ap: ap_mats,
            cl: cl_merged.logical(),
        },
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
    fn cached_q_is_healed_after_delayed_detection() {
        let (x, attn) = setup(10, 32, 4);
        let mut quiet = AbftReport::default();
        let clean = attn.forward_simple(&x, &mut quiet);
        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            if site.op == AttnOp::Q {
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
        // The cached Q (used by backward) must be finite and match clean.
        assert!(out.cache.q.all_finite());
        assert!(out.cache.q.approx_eq(&clean.cache.q, 1e-2, 1e-2));
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
