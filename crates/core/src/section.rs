//! Composable guarded-GEMM sections — the reusable core of the §4.4
//! protection scheme.
//!
//! A *section* is a group of GEMMs whose checksums ride from operand to
//! product so that one **delayed detection point** covers every kernel in
//! the group. The one protected attention ([`crate::decode::extend`], which
//! the training forward runs too) opens its three sections (`S_AS`,
//! `S_CL`, `S_O`) on this API, and the
//! same building blocks protect the transformer FFN GEMMs end-to-end
//! (`attn_model`), in the spirit of extending attention ABFT across the
//! whole model (FT-Transformer, arXiv 2504.02211).
//!
//! The vocabulary:
//!
//! * [`GuardedSection`] — per-section context created with
//!   [`GuardedSection::begin`]. Every step degrades to the plain
//!   unprotected computation when the section is inactive (frequency gate
//!   skipped this execution, or protection globally off), so callers write
//!   one pipeline and get bit-identical unprotected behaviour — and the
//!   same copies as a hand-written plain pipeline — for free.
//! * operands — every GEMM step takes its operands *borrowed*, as anything
//!   that converts into an [`Operand`] view: a plain `&Matrix` (weights,
//!   activations) or a `&CheckedMatrix` (an upstream product). Nothing is
//!   wrapped or cloned to be multiplied.
//! * GEMM steps — [`GuardedSection::gemm`] is the one `A · B` step: `A`'s
//!   column checksums ride through when it has them (inherited from an
//!   upstream GEMM or section); when the section is active and `A` is
//!   plain, its encoding accumulates inside the kernel's packing pass
//!   (paper §4.6) — bit-identical to encode-then-multiply without the
//!   standalone sweep; when the section is inactive, inherited checksums
//!   are dropped (a prefix view) and the plain product runs. This is how
//!   every projection of `S_AS`, `S_CL`, `S_O` and `S_FFN` runs on the hot
//!   path; the score and context products read the KV cache's paged
//!   blocks, so [`crate::decode`] builds their checked products itself.
//! * standalone encode — [`GuardedSection::encode_cols`] column-encodes a
//!   section input eagerly, for callers that need the encoded matrix
//!   itself (and as the reference the fused entry is tested against).
//! * exit — [`GuardedSection::exit_cols`] leaves the checksummed region
//!   for a nonlinear step (softmax, GELU, masking), returning plain data
//!   whose re-encoding rides in the next [`GuardedSection::gemm`].
//! * guarded steps — one execution's GEMM outputs meet the section through
//!   three steps, each of which exposes the output to the fault hook first:
//!   [`GuardedSection::check`] is the delayed detection point (detect,
//!   refine corrections to exact bits with the producing dot product,
//!   report); [`GuardedSection::project`] is an affine projection `x·W + b`
//!   ending in that check; [`GuardedSection::heal_operand_cols`] repairs
//!   *source* matrices (`Q`, `K`, `V`) through their inherited column
//!   checksums as they leave their projection, because the KV cache and
//!   the backward pass reuse them — a column it cannot heal counts as
//!   unrecovered. Hooks fire whether or not the section is active, so an
//!   unprotected run lets a struck value through.
//! * detection — [`GuardedSection::detect`] runs the two-sided correction
//!   protocol and returns a [`Detection`] that the caller refines to exact
//!   bits ([`Detection::refine`]) and folds into the report
//!   ([`Detection::absorb`]); [`GuardedSection::check`] is these three in
//!   order, and what every protected layer calls.
//! * [`Ctx`] — everything one execution threads through its layers: the
//!   protection policy, this execution's section toggles, the mask, the
//!   fault hook, the op guard of the non-GEMM ops, the report and whether
//!   a backward tape is recorded. [`Ctx::section`] opens a section under
//!   its toggle; closing the `Ctx` folds its op guard into the report.
//!
//! # Example: one section over a two-GEMM chain
//!
//! ```
//! use attn_tensor::rng::TensorRng;
//! use attnchecker::config::ProtectionConfig;
//! use attnchecker::report::{AbftReport, SectionId};
//! use attnchecker::section::{replay_nn, GuardedSection};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let x = rng.normal_matrix(8, 16, 1.0);
//! let w1 = rng.normal_matrix(16, 16, 1.0);
//! let w2 = rng.normal_matrix(16, 4, 1.0);
//!
//! let mut report = AbftReport::default();
//! let sec =
//!     GuardedSection::begin(SectionId::Output, &ProtectionConfig::full(), true, &mut report);
//! let h = sec.gemm(&x, &w1);      // checksums enter inside GEMM 1…
//! let mut y = sec.gemm(&h, &w2);  // …and ride through GEMM 2.
//! y.set(3, 1, f32::INFINITY);     // a soft error strikes
//!
//! // One delayed detection point covers the whole chain; exact replay
//! // restores the corrected element to its original bits.
//! // (`GuardedSection::check` is these three steps behind the fault hook.)
//! let mut det = sec.detect(&mut y, usize::MAX);
//! det.refine(&mut y, |r, c| replay_nn(h.logical_row(r), |k| w2[(k, c)]));
//! det.absorb(&mut report);
//! assert_eq!(report.correction_count(), 1);
//! assert!(y.logical().all_finite());
//! ```

use crate::attention::{AttnOp, FaultHook, FaultSite, SectionToggles};
use crate::checked::{CheckedMatrix, Operand, ProductKind};
use crate::config::{AbftConfig, ProtectionConfig, Strategy};
use crate::detect::{correct_columns, full_correct, CorrectionSummary, PassOutcome};
use crate::report::{AbftReport, CorrectionRecord, SectionId};
use attn_tensor::{Matrix, OpGuard};

/// Everything one protected execution threads through its layers.
///
/// A layer takes its inputs, its weights or cache, and one `&mut Ctx`:
/// the policy, the per-execution [`SectionToggles`] handed out by a
/// [`ProtectionPolicy`](crate::policy::ProtectionPolicy), the additive
/// attention mask, the optional fault-injection hook, the report the run
/// writes into, and whether a backward tape is recorded. It owns the op
/// guard of the execution's non-GEMM ops, and its `Drop` is the one place
/// that guard's counters are folded into the report. Callers that fan a
/// batch out (trainer, decode engine) open one per item, which is what
/// keeps hooks and reports local to their item.
pub struct Ctx<'a, 'h> {
    /// The protection policy (hard-off kills every section).
    pub config: &'a ProtectionConfig,
    /// Per-execution section toggles (from the frequency gates).
    pub toggles: SectionToggles,
    /// Additive attention mask, the rows of the tokens this execution
    /// feeds (e.g. causal or local-banded).
    pub mask: Option<&'a Matrix>,
    /// Optional fault-injection hook (its own lifetime: `&mut dyn` is
    /// invariant, so tying it to the report's borrow would force callers to
    /// keep hook and report alive equally long).
    pub hook: Option<FaultHook<'h>>,
    /// Where ABFT activity is recorded.
    pub report: &'a mut AbftReport,
    /// Whether the layers record their backward tape.
    pub taped: bool,
    guard: OpGuard,
}

impl<'a> Ctx<'a, '_> {
    /// Open an execution writing into `report`, with no mask, hook or
    /// tape. Its op guard screens at `config.abft.detect_tol` unless
    /// `config` is hard-off, which makes every checked op plain.
    pub fn new(
        config: &'a ProtectionConfig,
        toggles: SectionToggles,
        report: &'a mut AbftReport,
    ) -> Self {
        Self {
            config,
            toggles,
            mask: None,
            hook: None,
            report,
            taped: false,
            guard: OpGuard::new(!config.is_off(), config.abft.detect_tol),
        }
    }

    /// The op guard every non-GEMM op of the execution runs under.
    pub fn guard(&self) -> &OpGuard {
        &self.guard
    }

    /// Expose a GEMM output to the fault hook, if one is installed. Private:
    /// the section steps fire it, so no layer fires a site by hand.
    fn fire(&mut self, site: FaultSite, m: &mut CheckedMatrix) {
        if let Some(h) = self.hook.as_mut() {
            h(site, m);
        }
    }

    /// Open section `id` for this execution under its toggle (see
    /// [`GuardedSection::begin`]).
    pub fn section(&mut self, id: SectionId) -> GuardedSection {
        let t = &self.toggles;
        let active = match id {
            SectionId::AttentionScore => t.s_as,
            SectionId::ContextLayer => t.s_cl,
            SectionId::Output => t.s_o,
            SectionId::FeedForward => t.s_ffn,
        };
        GuardedSection::begin(id, self.config, active, self.report)
    }
}

impl Drop for Ctx<'_, '_> {
    /// Closing the execution folds its op guard into the report.
    fn drop(&mut self) {
        self.report.absorb_op_guard(self.guard.take_stats());
    }
}

/// One protection section: a group of GEMMs covered by a single delayed
/// detection point, with checksums passed from operand to product.
///
/// Copyable section *context*, not a container: the step methods operate on
/// caller-owned [`CheckedMatrix`] values, so arbitrary dataflow (per-head
/// loops, concatenation, interleaved sections) composes naturally.
#[derive(Debug, Clone, Copy)]
pub struct GuardedSection {
    id: SectionId,
    abft: AbftConfig,
    active: bool,
}

impl GuardedSection {
    /// Open a section for one execution.
    ///
    /// `active` is the section's frequency-gate toggle for this execution;
    /// it is further gated by [`ProtectionConfig::is_off`] so a fully
    /// disabled config is a hard kill-switch regardless of toggles. Opening
    /// the section records it as checked or skipped in `report`.
    pub fn begin(
        id: SectionId,
        config: &ProtectionConfig,
        active: bool,
        report: &mut AbftReport,
    ) -> Self {
        let active = active && !config.is_off();
        if active {
            report.sections_checked += 1;
        } else {
            report.sections_skipped += 1;
        }
        Self {
            id,
            abft: config.abft,
            active,
        }
    }

    /// Does this section perform detection this execution?
    pub fn active(&self) -> bool {
        self.active
    }

    /// Column-encode a section input eagerly (plain copy when inactive).
    /// The hot path does not need it — [`Self::gemm`] encodes on entry
    /// inside the kernel — but it is the standalone reference that entry
    /// is tested against, and what a caller that needs the encoded matrix
    /// itself uses.
    pub fn encode_cols(&self, m: &Matrix) -> CheckedMatrix {
        if self.active {
            CheckedMatrix::encode_cols(m, Strategy::Fused)
        } else {
            CheckedMatrix::from_plain_owned(m.clone())
        }
    }

    /// Guarded product `A · B`. `A`'s column checksums ride through when
    /// present; an active section encodes a plain `A` on entry, inside
    /// the GEMM's packing pass; an inactive one computes the plain
    /// product, dropping any checksums `A` inherited upstream. `B`'s row
    /// checksums (if any) ride through, corner included.
    ///
    /// # Panics
    /// Panics when `a` carries row checksums or `b` column checksums (they
    /// would corrupt the product's inner dimension).
    pub fn gemm<'a, 'b>(
        &self,
        a: impl Into<Operand<'a>>,
        b: impl Into<Operand<'b>>,
    ) -> CheckedMatrix {
        let (a, b) = (a.into(), b.into());
        if !self.active {
            return CheckedMatrix::product(a.without_col_checksums(), b, ProductKind::Nn);
        }
        let kind = if a.has_col_checksums() {
            ProductKind::Nn
        } else {
            ProductKind::EncodeCols
        };
        CheckedMatrix::product(a, b, kind)
    }

    /// Leave the checksummed region for a nonlinear step and return the
    /// *plain* result: `f` mutates the logical data (softmax, GELU,
    /// masking, caching …). Checksums cannot survive a nonlinearity; the
    /// re-entry encode rides inside the next [`Self::gemm`].
    pub fn exit_cols(&self, m: &CheckedMatrix, f: impl FnOnce(&mut Matrix)) -> Matrix {
        let mut data = m.logical();
        f(&mut data);
        data
    }

    /// The two-sided correction protocol on `m` (no-op when inactive),
    /// handed back as a [`Detection`] for refinement and reporting. `head`
    /// attributes corrections to a per-head matrix (`usize::MAX` for
    /// model-wide ones). Layers call [`Self::check`], which is this step
    /// between the hook and the report.
    pub fn detect(&self, m: &mut CheckedMatrix, head: usize) -> Detection {
        let summary = if self.active {
            full_correct(m, &self.abft)
        } else {
            CorrectionSummary::default()
        };
        Detection {
            summary,
            id: self.id,
            head,
            abft: self.abft,
        }
    }

    /// The section's delayed detection point for the GEMM output `m` at
    /// `site`: expose `m` to the fault hook, detect, restore every
    /// corrected element to exact bits with `exact` (the producing dot
    /// product) and fold the outcome into the report, attributed to
    /// `site`'s head. An inactive section only fires the hook.
    pub fn check(
        &self,
        m: &mut CheckedMatrix,
        site: FaultSite,
        ctx: &mut Ctx<'_, '_>,
        exact: impl Fn(usize, usize) -> f32,
    ) {
        ctx.fire(site, m);
        let mut det = self.detect(m, site.head.unwrap_or(usize::MAX));
        det.refine(m, exact);
        det.absorb(ctx.report);
    }

    /// A guarded affine projection `x·W + b` tapped at `op`: one
    /// [`Self::gemm`] step (the checksums `x` carries ride through, a plain
    /// `x` enters an active section inside the GEMM's packing pass), the
    /// bias, then [`Self::check`] with the producing dot over `x`'s rows
    /// where they lie as the replay. Returns the checked output —
    /// post-correction — for the next step; a caller that trains tapes `x`.
    pub fn project<'x>(
        &self,
        x: impl Into<Operand<'x>>,
        w: &Matrix,
        bias: &[f32],
        op: AttnOp,
        ctx: &mut Ctx<'_, '_>,
    ) -> CheckedMatrix {
        let x = x.into();
        let mut y = self.gemm(x, w);
        y.add_bias(bias);
        self.check(&mut y, FaultSite { op, head: None }, ctx, |r, c| {
            replay_nn(x.logical_row(r), |kk| w[(kk, c)]) + bias[c]
        });
        y
    }

    /// Heal a source operand at `site` through its inherited *column*
    /// checksums, after exposing it to the fault hook, and refine the
    /// fixes to exact bits with `exact` (the producing dot product). Used
    /// for `Q`, `K` and each head's `V` as they leave their projection: the
    /// KV cache and the backward pass reuse them, where a surviving extreme
    /// value would re-poison every later step. An inactive section only
    /// fires the hook.
    pub fn heal_operand_cols(
        &self,
        m: &mut CheckedMatrix,
        site: FaultSite,
        ctx: &mut Ctx<'_, '_>,
        exact: impl Fn(usize, usize) -> f32,
    ) {
        ctx.fire(site, m);
        if !self.active {
            return;
        }
        let col_pass = correct_columns(&mut m.bordered(), &self.abft);
        let head = site.head.unwrap_or(usize::MAX);
        let mut det = Detection::one_sided(col_pass, self.id, head, self.abft);
        det.refine(m, exact);
        det.absorb(ctx.report);
    }
}

/// Outcome of one [`GuardedSection::detect`] call, pending refinement and
/// absorption into the report.
#[derive(Debug)]
pub struct Detection {
    summary: CorrectionSummary,
    id: SectionId,
    head: usize,
    abft: AbftConfig,
}

impl Detection {
    /// One one-sided pass (either axis) as the whole detection of section
    /// `id` at `head`: a side heals nothing it cannot locate, so its
    /// propagated and unrecoverable vectors stay corrupt and the report
    /// must count them unrecovered. Operand healing and the at-rest KV
    /// verify fold their passes through it.
    pub(crate) fn one_sided(
        pass: PassOutcome,
        id: SectionId,
        head: usize,
        abft: AbftConfig,
    ) -> Self {
        let unrecovered = pass.propagated.len() + pass.unrecoverable.len();
        Self {
            summary: CorrectionSummary {
                col_pass: pass,
                unrecovered,
                ..CorrectionSummary::default()
            },
            id,
            head,
            abft,
        }
    }

    /// Total detections of any kind (corrections, propagations, rebuilds,
    /// unrecoverables).
    pub fn detections(&self) -> usize {
        self.summary.total_detections()
    }

    /// Exact-replay refinement: restore each corrected element to its
    /// original bits by replaying the producing dot product (`exact`). A
    /// no-op when nothing was corrected.
    ///
    /// Checksum reconstruction is only accurate to the ride-along
    /// checksums' round-off (~1e-6 relative here); Adam's normalised updates
    /// amplify even that into visible trajectory divergence within a few
    /// steps. Replaying the single producing dot is O(k) per corrected
    /// element, keeps recovery rollback-free, and makes a corrected step
    /// bit-identical to the fault-free step — the Fig 6 parity property.
    ///
    /// A replay is trusted only when it lands within detection-bound noise
    /// of the checksum reconstruction: the reconstruction's own error is
    /// orders of magnitude below that bound, while a replay against a
    /// still-corrupt operand (non-finite, or a sub-threshold corruption that
    /// escaped operand healing) differs by at least a detectable delta — in
    /// both cases the reconstructed value is kept.
    pub fn refine(&mut self, m: &mut CheckedMatrix, exact: impl Fn(usize, usize) -> f32) {
        let summary = &mut self.summary;
        let row_fixes = summary.row_pass.iter_mut().flat_map(|p| p.fixes.iter_mut());
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for fix in summary.col_pass.fixes.iter_mut().chain(row_fixes) {
            let v = exact(fix.row, fix.col);
            let row_abs: f32 = m.logical_row(fix.row).iter().map(|x| x.abs()).sum();
            let col_abs: f32 = (0..m.rows()).map(|r| m.get(r, fix.col).abs()).sum();
            let tol = self.abft.detection_bound(row_abs.max(col_abs));
            // NaN fails the comparison, so non-finite replays are rejected too.
            if (v - fix.new_value).abs() <= tol {
                m.set(fix.row, fix.col, v);
                // Keep the record truthful: `new_value` must be what is
                // actually left in the matrix, not the reconstruction.
                fix.new_value = v;
                rows.push(fix.row);
                cols.push(fix.col);
            }
        }
        // Refreshed values shift the data away from whatever borders the
        // correction pass rebuilt; re-derive the touched borders from data.
        rows.sort_unstable();
        rows.dedup();
        cols.sort_unstable();
        cols.dedup();
        let (has_rows, has_cols) = (m.has_row_checksums(), m.has_col_checksums());
        let mut m = m.bordered();
        if has_rows {
            for &r in &rows {
                m.recompute_row_checksum(r);
            }
        }
        if has_cols {
            for &c in &cols {
                m.recompute_col_checksum(c);
            }
        }
    }

    /// Fold this detection into the running report.
    pub fn absorb(self, report: &mut AbftReport) {
        let summary = &self.summary;
        report.detections += summary.total_detections();
        report.propagations += summary.total_propagations();
        report.checksum_rebuilds += summary.stale_rebuilds
            + summary.col_pass.rebuilt.len()
            + summary
                .row_pass
                .as_ref()
                .map(|p| p.rebuilt.len())
                .unwrap_or(0);
        report.unrecovered += summary.unrecovered;
        for fix in summary
            .col_pass
            .fixes
            .iter()
            .chain(summary.row_pass.iter().flat_map(|p| p.fixes.iter()))
        {
            report.corrections.push(CorrectionRecord {
                section: self.id,
                head: self.head,
                row: fix.row,
                col: fix.col,
                old_value: fix.old_value,
                new_value: fix.new_value,
            });
        }
    }
}

/// Exact replay of one element of an `op(A)·op(B)` product — `a_row` the
/// element's row of `op(A)`, `b_col(kk)` its column of `op(B)` — under the
/// packed kernel's accumulation-order contract
/// ([`attn_tensor::contract::dot_with`], for all of the NN/NT/TN layouts).
/// The result is bit-identical to what the original GEMM produced for
/// that cell.
pub use attn_tensor::contract::dot_with as replay_nn;

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests check guarded products against the raw kernels"
)]
mod tests {
    use super::*;
    use attn_tensor::gemm;
    use attn_tensor::rng::TensorRng;

    fn section(active: bool) -> (GuardedSection, AbftReport) {
        let mut report = AbftReport::default();
        let sec = GuardedSection::begin(
            SectionId::Output,
            &ProtectionConfig::full(),
            active,
            &mut report,
        );
        (sec, report)
    }

    #[test]
    fn begin_bumps_section_counters() {
        let (_, r_on) = section(true);
        assert_eq!((r_on.sections_checked, r_on.sections_skipped), (1, 0));
        let (_, r_off) = section(false);
        assert_eq!((r_off.sections_checked, r_off.sections_skipped), (0, 1));
    }

    #[test]
    fn off_config_is_a_hard_kill_switch() {
        let mut report = AbftReport::default();
        let sec = GuardedSection::begin(
            SectionId::Output,
            &ProtectionConfig::off(),
            true,
            &mut report,
        );
        assert!(!sec.active());
        assert_eq!(report.sections_skipped, 1);
    }

    #[test]
    fn inactive_section_is_bit_transparent() {
        let mut rng = TensorRng::seed_from(3);
        let x = rng.normal_matrix(5, 6, 1.0);
        let w = rng.normal_matrix(6, 4, 1.0);
        let (sec, _) = section(false);
        let y = sec.gemm(&sec.encode_cols(&x), &w);
        assert!(!y.has_col_checksums());
        assert_eq!(y.logical(), gemm::matmul(&x, &w));
    }

    #[test]
    fn active_chain_detects_and_refines_to_exact_bits() {
        let mut rng = TensorRng::seed_from(4);
        let x = rng.normal_matrix(6, 8, 1.0);
        let w = rng.normal_matrix(8, 5, 1.0);
        let clean = gemm::matmul(&x, &w);
        let (sec, mut report) = section(true);
        let mut y = sec.gemm(&sec.encode_cols(&x), &w);
        y.set(2, 3, f32::INFINITY);
        let mut det = sec.detect(&mut y, usize::MAX);
        assert!(det.detections() > 0);
        det.refine(&mut y, |r, c| replay_nn(x.row(r), |kk| w[(kk, c)]));
        det.absorb(&mut report);
        assert_eq!(y.logical(), clean, "replay must restore exact bits");
        assert_eq!(report.correction_count(), 1);
        assert_eq!(report.unrecovered, 0);
        assert_eq!(report.corrections[0].section, SectionId::Output);
    }

    #[test]
    fn fused_entry_matches_staged_encode_under_full() {
        let mut rng = TensorRng::seed_from(12);
        let x = rng.normal_matrix(6, 8, 1.0);
        let w = rng.normal_matrix(8, 5, 1.0);
        let (sec, _) = section(true);
        let staged = sec.gemm(&sec.encode_cols(&x), &w);
        let fused = sec.gemm(&x, &w);
        assert_eq!(fused.buf(), staged.buf());
    }

    #[test]
    fn exit_cols_applies_nonlinearity_and_returns_plain_data() {
        let mut rng = TensorRng::seed_from(14);
        let x = rng.normal_matrix(4, 4, 1.0);
        let (sec, _) = section(true);
        let enc = sec.encode_cols(&x);
        let out = sec.exit_cols(&enc, |m| {
            for v in m.data_mut() {
                *v = v.tanh();
            }
        });
        assert_eq!(out, x.map(|v| v.tanh()));
    }

    #[test]
    fn replay_nn_reproduces_kernel_bits_across_kc_blocks() {
        let mut rng = TensorRng::seed_from(15);
        let k = 2 * gemm::KC + 19;
        let x = rng.normal_matrix(3, k, 1.0);
        let w = rng.normal_matrix(k, 4, 1.0);
        let c = gemm::matmul(&x, &w);
        for r in 0..3 {
            for col in 0..4 {
                let replayed = replay_nn(x.row(r), |kk| w[(kk, col)]);
                assert_eq!(
                    replayed.to_bits(),
                    c[(r, col)].to_bits(),
                    "({r},{col}): replay must hit the kernel's exact bits"
                );
            }
        }
    }

    /// A fresh context over `report` (no mask, no tape).
    fn test_ctx<'a, 'h>(
        config: &'a ProtectionConfig,
        hook: Option<FaultHook<'h>>,
        report: &'a mut AbftReport,
    ) -> Ctx<'a, 'h> {
        let mut ctx = Ctx::new(config, SectionToggles::all(), report);
        ctx.hook = hook;
        ctx
    }

    #[test]
    fn each_ctx_folds_its_own_guard_exactly_once() {
        let config = ProtectionConfig::full();
        let mut report = AbftReport::default();
        // Two executions write one report in turn.
        for (checks, heals, total) in [(3, 1, 3), (4, 0, 7)] {
            let mut ctx = test_ctx(&config, None, &mut report);
            assert!(ctx.guard().active());
            assert_eq!(ctx.guard().tol(), config.abft.detect_tol);
            let _ = ctx.section(SectionId::Output);
            for _ in 0..checks {
                ctx.guard().record_check();
            }
            for _ in 0..heals {
                ctx.guard().record_heal();
            }
            drop(ctx);
            assert_eq!(report.op_checks, total);
        }
        assert_eq!((report.op_detections, report.op_heals), (1, 1));
        assert_eq!((report.sections_checked, report.sections_skipped), (2, 0));
        let off = ProtectionConfig::off();
        let ctx = test_ctx(&off, None, &mut report);
        assert!(
            !ctx.guard().active(),
            "a hard-off policy opens an inactive guard"
        );
    }

    #[test]
    fn heal_operand_cols_restores_source_matrix() {
        let mut rng = TensorRng::seed_from(7);
        let x = rng.normal_matrix(6, 6, 1.0);
        let w = rng.normal_matrix(6, 6, 1.0);
        let clean = gemm::matmul(&x, &w);
        let (sec, mut report) = section(true);
        let mut q = sec.gemm(&sec.encode_cols(&x), &w);
        q.set(1, 2, f32::NAN);
        let config = ProtectionConfig::full();
        let site = FaultSite {
            op: AttnOp::Q,
            head: None,
        };
        let mut ctx = test_ctx(&config, None, &mut report);
        sec.heal_operand_cols(&mut q, site, &mut ctx, |r, c| {
            replay_nn(x.row(r), |kk| w[(kk, c)])
        });
        drop(ctx);
        assert_eq!(q.logical(), clean);
        assert_eq!(report.correction_count(), 1);
    }

    /// `in_dim → out_dim` affine weights drawn like a fresh layer's
    /// (Xavier weight, zero bias), and the input.
    fn affine(seed: u64, in_dim: usize, out_dim: usize, rows: usize) -> (Matrix, Vec<f32>, Matrix) {
        let mut rng = TensorRng::seed_from(seed);
        let w = rng.xavier_matrix(in_dim, out_dim);
        let x = rng.normal_matrix(rows, in_dim, 1.0);
        (w, vec![0.0; out_dim], x)
    }

    /// The unguarded `x·W + b`.
    fn plain_affine(x: &Matrix, w: &Matrix, b: &[f32]) -> Matrix {
        let mut y = gemm::matmul(x, w);
        attn_tensor::ops::add_bias_inplace(&mut y, b);
        y
    }

    /// [`GuardedSection::project`] over an encoded `x` in an `S_FFN`
    /// section; returns `(output, report)`.
    fn guarded_project(
        (w, b, x): (&Matrix, &[f32], &Matrix),
        op: AttnOp,
        active: bool,
        hook: Option<FaultHook<'_>>,
    ) -> (Matrix, AbftReport) {
        let config = ProtectionConfig::full();
        let mut report = AbftReport::default();
        let sec = GuardedSection::begin(SectionId::FeedForward, &config, active, &mut report);
        let xc = sec.encode_cols(x);
        let mut ctx = test_ctx(&config, hook, &mut report);
        let y = sec.project(&xc, w, b, op, &mut ctx).logical();
        drop(ctx);
        (y, report)
    }

    #[test]
    fn fault_free_project_is_bit_identical() {
        let (w, b, x) = affine(11, 6, 8, 4);
        let plain = plain_affine(&x, &w, &b);
        for active in [false, true] {
            let (y, report) = guarded_project((&w, &b, &x), AttnOp::Ffn1, active, None);
            assert_eq!(y, plain, "active={active}");
            assert!(report.is_quiet());
        }
    }

    #[test]
    fn project_corrects_injected_extreme_to_exact_bits() {
        let (w, b, x) = affine(12, 6, 8, 4);
        let plain = plain_affine(&x, &w, &b);
        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            assert_eq!(site.op, AttnOp::Ffn1);
            m.set(1, 3, f32::NEG_INFINITY);
        };
        let (y, report) = guarded_project((&w, &b, &x), AttnOp::Ffn1, true, Some(&mut hook));
        assert_eq!(y, plain, "exact replay must restore original bits");
        assert_eq!(report.correction_count(), 1);
        assert_eq!(report.corrections[0].section, SectionId::FeedForward);
        assert_eq!(report.unrecovered, 0);
    }

    #[test]
    fn inactive_project_lets_fault_through() {
        let (w, b, x) = affine(13, 5, 5, 3);
        let mut hook = |_: FaultSite, m: &mut CheckedMatrix| m.set(0, 0, f32::NAN);
        let (y, report) = guarded_project((&w, &b, &x), AttnOp::Ffn2, false, Some(&mut hook));
        assert!(!y.all_finite(), "no detection when the section is off");
        assert_eq!(report.correction_count(), 0);
    }
}
