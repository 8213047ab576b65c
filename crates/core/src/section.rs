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
//! * detection — [`GuardedSection::detect`] runs the two-sided correction
//!   protocol and returns a [`Detection`] that the caller refines to exact
//!   bits ([`Detection::refine`]) and folds into the report
//!   ([`Detection::absorb`]).
//! * operand healing — [`GuardedSection::heal_operand_cols`] repairs
//!   *source* matrices (`Q`, `K`, `V`) through their inherited column
//!   checksums as they leave their projection, because the KV cache and
//!   the backward pass reuse them. It reports through the same
//!   [`Detection::absorb`], so a column it cannot heal counts as
//!   unrecovered.
//! * [`ForwardCtx`] — the per-execution state (mask, section toggles, fault
//!   hook, report) threaded through every layer of one execution.
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
//! let mut det = sec.detect(&mut y, usize::MAX);
//! if det.detections() > 0 {
//!     det.refine(&mut y, |r, c| replay_nn(h.logical_row(r), |k| w2[(k, c)]));
//! }
//! det.absorb(&mut report);
//! assert_eq!(report.correction_count(), 1);
//! assert!(y.logical().all_finite());
//! ```

use crate::attention::{FaultHook, FaultSite, SectionToggles};
use crate::checked::{CheckedMatrix, Operand, ProductKind};
use crate::config::{AbftConfig, ProtectionConfig, Strategy};
use crate::detect::{correct_columns, full_correct, CorrectionSummary, ElementFix};
use crate::report::{AbftReport, CorrectionRecord, SectionId};
use attn_tensor::Matrix;

/// Per-execution context threaded through a protected forward pass.
///
/// One `ForwardCtx` carries everything that varies per call — the additive
/// attention mask, the per-execution [`SectionToggles`] handed out by a
/// [`ProtectionPolicy`](crate::policy::ProtectionPolicy), the optional
/// fault-injection hook, and the report the run writes into — so layer code
/// threads a single `&mut ForwardCtx` instead of a parameter list. Callers
/// that fan a batch out (trainer, decode engine) build one per item, which
/// is what keeps hooks and reports local to their item.
pub struct ForwardCtx<'a, 'h> {
    /// Additive attention mask (`seq × seq`), e.g. causal or local-banded.
    pub mask: Option<&'a Matrix>,
    /// Per-execution section toggles (from the frequency gates).
    pub toggles: SectionToggles,
    /// Optional fault-injection hook (its own lifetime: `&mut dyn` is
    /// invariant, so tying it to the report's borrow would force callers to
    /// keep hook and report alive equally long).
    pub hook: Option<FaultHook<'h>>,
    /// Where ABFT activity is recorded.
    pub report: &'a mut AbftReport,
}

impl ForwardCtx<'_, '_> {
    /// Expose a GEMM output to the fault hook, if one is installed.
    pub fn fire(&mut self, site: FaultSite, m: &mut CheckedMatrix) {
        if let Some(h) = self.hook.as_mut() {
            h(site, m);
        }
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

    /// Open a whole-step guard scope for the non-GEMM operators
    /// (softmax, LayerNorm, GELU, residual adds, embedding, loss,
    /// sampler, optimizer moments).
    ///
    /// The returned [`OpGuard`](attn_tensor::OpGuard) is shared by
    /// reference across every `*_checked` op inside the step; its
    /// accumulated [`GuardStats`](attn_tensor::GuardStats) are folded
    /// into the step report with
    /// [`AbftReport::absorb_op_guard`](crate::report::AbftReport::absorb_op_guard).
    /// A disabled config yields an inactive guard — every checked op
    /// degenerates to its plain form, mirroring how an inactive section
    /// degrades its GEMMs.
    pub fn guard_step(config: &ProtectionConfig) -> attn_tensor::OpGuard {
        attn_tensor::OpGuard::new(!config.is_off(), config.abft.detect_tol)
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

    /// The section's delayed detection point: run the two-sided correction
    /// protocol on `m` (no-op when inactive) and hand back a [`Detection`]
    /// for refinement and reporting. `head` attributes corrections to a
    /// per-head matrix (`usize::MAX` for model-wide ones).
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

    /// Heal a source operand through its inherited *column* checksums, then
    /// refine the fixes to exact bits with `exact` (the producing dot
    /// product). Used for `Q`, `K` and each head's `V` as they leave their
    /// projection: the KV cache and the backward pass reuse them, where a
    /// surviving extreme value would re-poison every later step.
    pub fn heal_operand_cols(
        &self,
        report: &mut AbftReport,
        m: &mut CheckedMatrix,
        head: usize,
        exact: impl Fn(usize, usize) -> f32,
    ) {
        let mut col_pass = correct_columns(m, &self.abft);
        apply_exact_fixes(m, &self.abft, col_pass.fixes.iter_mut(), exact);
        // A one-sided pass heals nothing it cannot locate: propagated and
        // unrecoverable columns stay corrupt, and the report must say so.
        let unrecovered = col_pass.propagated.len() + col_pass.unrecoverable.len();
        Detection {
            summary: CorrectionSummary {
                col_pass,
                unrecovered,
                ..CorrectionSummary::default()
            },
            id: self.id,
            head,
            abft: self.abft,
        }
        .absorb(report);
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
    /// Total detections of any kind (corrections, propagations, rebuilds,
    /// unrecoverables). Sections heal their source operands when this is
    /// non-zero.
    pub fn detections(&self) -> usize {
        self.summary.total_detections()
    }

    /// Corrected elements across both passes.
    pub fn fixes(&self) -> usize {
        self.summary.total_fixes()
    }

    /// Exact-replay refinement: restore each corrected element to its
    /// original bits by replaying the producing dot product (`exact`),
    /// trusted only when the replay lands within detection-bound noise of
    /// the checksum reconstruction.
    pub fn refine(&mut self, m: &mut CheckedMatrix, exact: impl Fn(usize, usize) -> f32) {
        let fixes = self.summary.col_pass.fixes.iter_mut().chain(
            self.summary
                .row_pass
                .iter_mut()
                .flat_map(|p| p.fixes.iter_mut()),
        );
        apply_exact_fixes(m, &self.abft, fixes, exact);
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

/// Restore corrected elements to their exact original bits by replaying the
/// dot product that produced each one.
///
/// Checksum reconstruction is only accurate to the ride-along checksums'
/// round-off (~1e-6 relative here); Adam's normalised updates amplify even
/// that into visible trajectory divergence within a few steps. Replaying
/// the single producing dot is O(k) per corrected element, keeps recovery
/// rollback-free, and makes a corrected step bit-identical to the
/// fault-free step — the Fig 6 parity property.
///
/// A replay is trusted only when it lands within detection-bound noise of
/// the checksum reconstruction: the reconstruction's own error is orders of
/// magnitude below that bound, while a replay against a still-corrupt
/// operand (non-finite, or a sub-threshold corruption that escaped operand
/// healing) differs by at least a detectable delta — in both cases the
/// reconstructed value is kept.
fn apply_exact_fixes<'a>(
    m: &mut CheckedMatrix,
    cfg: &AbftConfig,
    fixes: impl Iterator<Item = &'a mut ElementFix>,
    exact: impl Fn(usize, usize) -> f32,
) {
    let mut rows: Vec<usize> = Vec::new();
    let mut cols: Vec<usize> = Vec::new();
    for fix in fixes {
        let v = exact(fix.row, fix.col);
        let row_abs: f32 = m.logical_row(fix.row).iter().map(|x| x.abs()).sum();
        let col_abs: f32 = (0..m.rows()).map(|r| m.get(r, fix.col).abs()).sum();
        let tol = cfg.detection_bound(row_abs.max(col_abs));
        // NaN fails the comparison, so non-finite replays are rejected too.
        if (v - fix.new_value).abs() <= tol {
            m.set(fix.row, fix.col, v);
            // Keep the record truthful: `new_value` must be what is actually
            // left in the matrix, not the intermediate reconstruction.
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
    if m.has_row_checksums() {
        for &r in &rows {
            m.recompute_row_checksum(r);
        }
    }
    if m.has_col_checksums() {
        for &c in &cols {
            m.recompute_col_checksum(c);
        }
    }
}

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

    #[test]
    fn heal_operand_cols_restores_source_matrix() {
        let mut rng = TensorRng::seed_from(7);
        let x = rng.normal_matrix(6, 6, 1.0);
        let w = rng.normal_matrix(6, 6, 1.0);
        let clean = gemm::matmul(&x, &w);
        let (sec, mut report) = section(true);
        let mut q = sec.gemm(&sec.encode_cols(&x), &w);
        q.set(1, 2, f32::NAN);
        sec.heal_operand_cols(&mut report, &mut q, usize::MAX, |r, c| {
            replay_nn(x.row(r), |kk| w[(kk, c)])
        });
        assert_eq!(q.logical(), clean);
        assert_eq!(report.correction_count(), 1);
    }
}
