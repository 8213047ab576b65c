//! Bookkeeping for detections, corrections, and protection activity.

use std::fmt;

/// Where in the attention pipeline an event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionId {
    /// `S_AS = {X·W_Q, X·W_K, Q·Kᵀ}`.
    AttentionScore,
    /// `S_CL = {X·W_V, AP·V}`.
    ContextLayer,
    /// `S_O = {CL·W_O}`.
    Output,
    /// `S_FFN = {H·W_1, GELU(·)·W_2}` — the feed-forward extension beyond
    /// the paper's attention scope.
    FeedForward,
}

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SectionId::AttentionScore => "S_AS",
            SectionId::ContextLayer => "S_CL",
            SectionId::Output => "S_O",
            SectionId::FeedForward => "S_FFN",
        })
    }
}

/// One applied correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectionRecord {
    /// Section in which the correction ran.
    pub section: SectionId,
    /// Head index (usize::MAX when not head-scoped, e.g. the output GEMM).
    pub head: usize,
    /// Row of the corrected element in the protected matrix.
    pub row: usize,
    /// Column of the corrected element.
    pub col: usize,
    /// Corrupted value.
    pub old_value: f32,
    /// Restored value.
    pub new_value: f32,
}

/// Aggregated ABFT activity across one or more forward passes.
///
/// Reports are merged bottom-up: per-head summaries into per-layer, layers
/// into a training step. The evaluation binaries read these counters to
/// reproduce the paper's "100% detection and correction" claim (§5.2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbftReport {
    /// Vectors flagged by detection (including those later corrected).
    pub detections: usize,
    /// Applied corrections.
    pub corrections: Vec<CorrectionRecord>,
    /// 1D propagations recognised (case 4) — resolved by the orthogonal
    /// pass.
    pub propagations: usize,
    /// Checksum borders rebuilt after corruption or staleness.
    pub checksum_rebuilds: usize,
    /// Errors that survived all passes (should stay 0 under the paper's
    /// single-fault-per-section model).
    pub unrecovered: usize,
    /// Sections that actually ran detection.
    pub sections_checked: usize,
    /// Sections skipped by the frequency gate.
    pub sections_skipped: usize,
    /// Invariant screens evaluated by the non-GEMM op guards
    /// (`OpGuard` scopes: softmax, LayerNorm, GELU, residual add,
    /// embedding, loss, sampler, optimizer moments).
    pub op_checks: usize,
    /// Op-guard screens whose exact recompute differed bitwise from the
    /// live value — genuine non-GEMM detections.
    pub op_detections: usize,
    /// Exact op-guard heals applied (recompute-from-inputs or bit
    /// restores adopted).
    pub op_heals: usize,
}

impl AbftReport {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: &AbftReport) {
        self.detections += other.detections;
        self.corrections.extend_from_slice(&other.corrections);
        self.propagations += other.propagations;
        self.checksum_rebuilds += other.checksum_rebuilds;
        self.unrecovered += other.unrecovered;
        self.sections_checked += other.sections_checked;
        self.sections_skipped += other.sections_skipped;
        self.op_checks += other.op_checks;
        self.op_detections += other.op_detections;
        self.op_heals += other.op_heals;
    }

    /// Fold one non-GEMM op guard's counters into this report — done
    /// where a [`Ctx`](crate::section::Ctx) closes, and nowhere else.
    /// Guard detections that could not be healed join the shared
    /// `unrecovered` pool.
    pub(crate) fn absorb_op_guard(&mut self, s: attn_tensor::GuardStats) {
        self.op_checks += s.checks;
        self.op_detections += s.detections;
        self.op_heals += s.heals;
        self.unrecovered += s.unrecovered;
    }

    /// True when nothing was detected anywhere.
    pub fn is_quiet(&self) -> bool {
        self.detections == 0
            && self.corrections.is_empty()
            && self.unrecovered == 0
            && self.op_detections == 0
    }

    /// Number of corrections applied.
    pub fn correction_count(&self) -> usize {
        self.corrections.len()
    }
}

impl fmt::Display for AbftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detections={} corrections={} propagations={} rebuilds={} unrecovered={} checked={} skipped={} op_checks={} op_detections={} op_heals={}",
            self.detections,
            self.corrections.len(),
            self.propagations,
            self.checksum_rebuilds,
            self.unrecovered,
            self.sections_checked,
            self.sections_skipped,
            self.op_checks,
            self.op_detections,
            self.op_heals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = AbftReport {
            detections: 2,
            corrections: vec![CorrectionRecord {
                section: SectionId::AttentionScore,
                head: 0,
                row: 1,
                col: 2,
                old_value: f32::INFINITY,
                new_value: 0.5,
            }],
            ..AbftReport::default()
        };
        let b = AbftReport {
            detections: 3,
            unrecovered: 1,
            ..AbftReport::default()
        };
        a.merge(&b);
        assert_eq!(a.detections, 5);
        assert_eq!(a.correction_count(), 1);
        assert_eq!(a.unrecovered, 1);
    }

    #[test]
    fn quiet_report() {
        let mut r = AbftReport::default();
        assert!(r.is_quiet());
        r.detections = 1;
        assert!(!r.is_quiet());
    }

    #[test]
    fn op_guard_detections_break_quiet_and_merge() {
        let mut r = AbftReport::default();
        r.absorb_op_guard(attn_tensor::GuardStats {
            checks: 7,
            detections: 0,
            heals: 0,
            unrecovered: 0,
        });
        assert!(r.is_quiet(), "checks alone must stay quiet");
        r.absorb_op_guard(attn_tensor::GuardStats {
            checks: 1,
            detections: 2,
            heals: 1,
            unrecovered: 1,
        });
        assert!(!r.is_quiet());
        assert_eq!(r.op_checks, 8);
        assert_eq!(r.op_detections, 2);
        assert_eq!(r.op_heals, 1);
        assert_eq!(r.unrecovered, 1);

        let mut total = AbftReport::default();
        total.merge(&r);
        total.merge(&r);
        assert_eq!(total.op_checks, 16);
        assert_eq!(total.op_detections, 4);
        assert_eq!(total.op_heals, 2);
    }

    #[test]
    fn section_display() {
        assert_eq!(SectionId::AttentionScore.to_string(), "S_AS");
        assert_eq!(SectionId::ContextLayer.to_string(), "S_CL");
        assert_eq!(SectionId::Output.to_string(), "S_O");
        assert_eq!(SectionId::FeedForward.to_string(), "S_FFN");
    }
}
