//! Extreme-Error-Correcting ABFT for a single vector (paper §4.2, Fig 3).
//!
//! Classic ABFT locates a single error at `round(δ2/δ1)` and corrects it by
//! adding `δ1`. Both steps break down for the extreme values this paper
//! targets:
//!
//! * an INF or NaN error poisons both recomputed checksums, so `δ2/δ1` is
//!   INF/NaN and the index is garbage;
//! * a near-INF error can overflow the *weighted* checksum (weights grow
//!   with the index) even when the plain checksum survives;
//! * a near-INF correction by `+δ1` absorbs the true value into round-off.
//!
//! EEC-ABFT therefore dispatches on the *state of δ1*:
//!
//! * **Case 1** — δ1 finite: count near-INF elements; locate via `δ2/δ1`
//!   when δ2 is finite, otherwise by magnitude scan; correct by `+δ1` for
//!   moderate values and by reconstruction above `T_correct`.
//! * **Case 2** — δ1 = ±INF: an INF in the data or a checksum-sum overflow;
//!   locate by scanning for INF / the largest magnitude; reconstruct.
//! * **Case 3** — δ1 = NaN: any of the three types (NaN arises from
//!   INF−INF and near-INF arithmetic too); locate by scanning for NaN, then
//!   INF, then magnitude; reconstruct.
//! * **Case 4** — more than one suspicious element: a 1D propagation; abort
//!   the vector-local correction and report upward (the section handler
//!   switches to the orthogonal checksums, §4.3).

use crate::checksum::{vector_sums, weight};
use crate::config::AbftConfig;
use attn_tensor::float::NEAR_INF_THRESHOLD;

/// `T_correct` (paper §4.2): a located error whose corrupted value is
/// larger in magnitude than this is corrected by *reconstruction* from the
/// checksum rather than by adding δ1, because round-off absorption would
/// otherwise corrupt the recovery.
pub const CORRECT_THRESHOLD: f32 = 1e5;

/// How a correction was performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionMethod {
    /// `v[i] += δ1` — safe for moderate magnitudes.
    DeltaAdd,
    /// `v[i] = csum − Σ_{j≠i} v[j]` — mandatory for extreme magnitudes
    /// where δ-addition would be absorbed by round-off.
    Reconstruct,
}

/// Which δ1 state drove the dispatch (for reporting / tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EecCase {
    /// δ1 finite and above the detection bound.
    FiniteDelta,
    /// δ1 = ±INF.
    InfDelta,
    /// δ1 = NaN.
    NanDelta,
}

/// Outcome of running EEC-ABFT on one vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorVerdict {
    /// Checksums hold — no error.
    Clean,
    /// Exactly one error found and corrected in place.
    Corrected {
        /// Index of the corrected element.
        index: usize,
        /// Corrupted value before correction.
        old_value: f32,
        /// Restored value.
        new_value: f32,
        /// Correction mechanism used.
        method: CorrectionMethod,
        /// Dispatch case that handled it.
        case: EecCase,
    },
    /// More than one suspicious element: 1D propagation (case 4). The
    /// vector is untouched; the caller must use the orthogonal checksums.
    Propagated {
        /// Number of suspicious elements counted.
        suspects: usize,
    },
    /// The data is consistent but a stored checksum is corrupt (the fault
    /// struck the checksum border). Caller should rebuild the checksums.
    ChecksumCorrupt,
    /// Both the data and the checksum needed for reconstruction are
    /// corrupt — beyond single-vector recovery.
    Unrecoverable,
}

impl VectorVerdict {
    /// True for the `Clean` verdict.
    pub fn is_clean(&self) -> bool {
        matches!(self, VectorVerdict::Clean)
    }
}

/// Count "suspicious" elements: NaN, ±INF, and finite values above
/// [`NEAR_INF_THRESHOLD`]; return the count and the index of the strongest
/// suspect (NaN ≻ INF ≻ near-INF by scan priority).
fn census(v: &[f32]) -> (usize, Option<usize>) {
    let mut count = 0;
    let mut first_nan = None;
    let mut first_inf = None;
    let mut max_near: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        if x.is_nan() {
            count += 1;
            first_nan.get_or_insert(i);
        } else if x.is_infinite() {
            count += 1;
            first_inf.get_or_insert(i);
        } else if x.abs() > NEAR_INF_THRESHOLD {
            count += 1;
            match max_near {
                Some((_, m)) if x.abs() <= m => {}
                _ => max_near = Some((i, x.abs())),
            }
        }
    }
    let strongest = first_nan.or(first_inf).or(max_near.map(|(i, _)| i));
    (count, strongest)
}

/// Reconstruct element `i` from the stored checksum:
/// `v[i] = csum − Σ_{j≠i} v[j]`. Returns `None` when the checksum or any
/// *other* element is non-finite (reconstruction impossible).
fn reconstruct(v: &[f32], i: usize, csum: f32) -> Option<f32> {
    if !csum.is_finite() {
        return None;
    }
    // f64 accumulation: the restored value should be limited by the stored
    // checksum's own round-off, not by re-summing in f32.
    let mut rest = 0.0f64;
    for (j, &x) in v.iter().enumerate() {
        if j == i {
            continue;
        }
        if !x.is_finite() {
            return None;
        }
        rest += x as f64;
    }
    let rec = (csum as f64 - rest) as f32;
    rec.is_finite().then_some(rec)
}

/// Run EEC-ABFT on one vector given its stored checksums.
///
/// `v` is the data vector (a logical row or column of a [`crate::CheckedMatrix`]);
/// `csum`/`wsum` the stored unweighted/weighted checksums. On a single
/// recoverable error the element is corrected **in place** and the verdict
/// reports the restored index; on propagation or double corruption `v` is
/// left untouched.
pub fn eec_correct_vector(v: &mut [f32], csum: f32, wsum: f32, cfg: &AbftConfig) -> VectorVerdict {
    let n = v.len();
    if n == 0 {
        return VectorVerdict::Clean;
    }
    let (c1, c2, sum_abs) = vector_sums(v);
    let d1 = csum - c1;
    let d2 = wsum - c2;
    let bound = cfg.detection_bound(sum_abs);
    // Weighted sums accumulate index-scaled magnitudes; scale the bound the
    // same way to keep false-positive rates symmetric.
    let bound_w = cfg.detection_bound(sum_abs * n as f32);

    if !d1.is_finite() {
        // ---- Case 2, INF δ: an INF in the data, a near-INF overflow of
        // the recomputed sum, or a corrupted (±INF) stored checksum.
        // ---- Case 3, NaN δ: all three error types possible.
        // Both locate by census and reconstruct; only the tag differs.
        let case = if d1.is_nan() {
            EecCase::NanDelta
        } else {
            EecCase::InfDelta
        };
        return match census(v) {
            (0, _) => VectorVerdict::ChecksumCorrupt, // data clean, csum non-finite
            (1, strongest) => {
                let i = strongest.expect("census found one suspect");
                match reconstruct(v, i, csum) {
                    Some(new) => {
                        let old = v[i];
                        v[i] = new;
                        VectorVerdict::Corrected {
                            index: i,
                            old_value: old,
                            new_value: new,
                            method: CorrectionMethod::Reconstruct,
                            case,
                        }
                    }
                    None => VectorVerdict::Unrecoverable,
                }
            }
            (s, _) => VectorVerdict::Propagated { suspects: s },
        };
    }

    // δ1 finite from here on.
    if d1.abs() <= bound {
        // Plain checksum consistent. Still guard the weighted checksum: a
        // fault that struck only the weighted border must be repaired or it
        // would mis-locate a future error.
        if d2.is_nan() || d2.is_infinite() || d2.abs() > bound_w {
            return VectorVerdict::ChecksumCorrupt;
        }
        return VectorVerdict::Clean;
    }

    // ---- Case 1: finite δ1 above the detection bound.
    let (near_count, strongest) = census(v);
    match near_count {
        0 => {
            // Moderate single error: classic locate via δ2/δ1, but validate
            // the single-error hypothesis before touching anything.
            let ratio = d2 / d1;
            if !ratio.is_finite() {
                return VectorVerdict::ChecksumCorrupt;
            }
            let idx = ratio.round();
            if idx < 1.0 || idx > n as f32 {
                // Locator out of range: the discrepancy cannot come from a
                // single data error — a checksum cell took the hit.
                return VectorVerdict::ChecksumCorrupt;
            }
            let i = idx as usize - 1;
            // Consistency: a single error at i implies δ2 ≈ (i+1)·δ1.
            if (d2 - weight(i) * d1).abs() > bound_w.max(d1.abs() * 0.01) {
                return VectorVerdict::Propagated { suspects: 2 };
            }
            let old = v[i];
            let (new, method) = if old.abs() > CORRECT_THRESHOLD {
                match reconstruct(v, i, csum) {
                    Some(r) => (r, CorrectionMethod::Reconstruct),
                    None => return VectorVerdict::Unrecoverable,
                }
            } else {
                (old + d1, CorrectionMethod::DeltaAdd)
            };
            v[i] = new;
            VectorVerdict::Corrected {
                index: i,
                old_value: old,
                new_value: new,
                method,
                case: EecCase::FiniteDelta,
            }
        }
        1 => {
            // Exactly one near-INF element. The weighted checksum may have
            // overflowed (δ2 INF) — prefer δ2/δ1 when finite, fall back to
            // the magnitude scan the paper describes.
            let i = if d2.is_finite() {
                let idx = (d2 / d1).round();
                if idx >= 1.0 && idx <= n as f32 {
                    idx as usize - 1
                } else {
                    strongest.expect("census found one suspect")
                }
            } else {
                strongest.expect("census found one suspect")
            };
            let old = v[i];
            // Near-INF magnitude ≫ T_correct: δ-addition would round away
            // the true value; reconstruct instead.
            match reconstruct(v, i, csum) {
                Some(new) => {
                    v[i] = new;
                    VectorVerdict::Corrected {
                        index: i,
                        old_value: old,
                        new_value: new,
                        method: CorrectionMethod::Reconstruct,
                        case: EecCase::FiniteDelta,
                    }
                }
                None => VectorVerdict::Unrecoverable,
            }
        }
        s => VectorVerdict::Propagated { suspects: s },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_vector(n: usize) -> (Vec<f32>, f32, f32) {
        let v: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.37).collect();
        let (s, ws, _) = vector_sums(&v);
        (v, s, ws)
    }

    fn cfg() -> AbftConfig {
        AbftConfig::default()
    }

    #[test]
    fn clean_vector_passes() {
        let (mut v, s, ws) = make_vector(32);
        assert_eq!(
            eec_correct_vector(&mut v, s, ws, &cfg()),
            VectorVerdict::Clean
        );
    }

    #[test]
    fn corrects_inf_at_every_position() {
        for pos in 0..16 {
            let (mut v, s, ws) = make_vector(16);
            let truth = v.clone();
            v[pos] = f32::INFINITY;
            let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
            match verdict {
                VectorVerdict::Corrected {
                    index,
                    case,
                    method,
                    ..
                } => {
                    assert_eq!(index, pos);
                    assert_eq!(case, EecCase::InfDelta);
                    assert_eq!(method, CorrectionMethod::Reconstruct);
                }
                other => panic!("pos {pos}: {other:?}"),
            }
            assert!((v[pos] - truth[pos]).abs() < 1e-3, "pos {pos}");
        }
    }

    #[test]
    fn corrects_neg_inf() {
        let (mut v, s, ws) = make_vector(8);
        let truth = v[3];
        v[3] = f32::NEG_INFINITY;
        assert!(matches!(
            eec_correct_vector(&mut v, s, ws, &cfg()),
            VectorVerdict::Corrected { .. }
        ));
        assert!((v[3] - truth).abs() < 1e-3);
    }

    #[test]
    fn corrects_nan_at_every_position() {
        for pos in [0usize, 1, 7, 15] {
            let (mut v, s, ws) = make_vector(16);
            let truth = v[pos];
            v[pos] = f32::NAN;
            let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
            match verdict {
                VectorVerdict::Corrected { index, case, .. } => {
                    assert_eq!(index, pos);
                    assert_eq!(case, EecCase::NanDelta);
                }
                other => panic!("pos {pos}: {other:?}"),
            }
            assert!((v[pos] - truth).abs() < 1e-3);
        }
    }

    #[test]
    fn corrects_near_inf_by_reconstruction() {
        let (mut v, s, ws) = make_vector(24);
        let truth = v[10];
        v[10] = 3.7e12;
        let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
        match verdict {
            VectorVerdict::Corrected { index, method, .. } => {
                assert_eq!(index, 10);
                assert_eq!(method, CorrectionMethod::Reconstruct);
            }
            other => panic!("{other:?}"),
        }
        assert!((v[10] - truth).abs() < 1e-3);
    }

    #[test]
    fn near_inf_with_weighted_overflow_still_located() {
        // Huge value near the end of a long vector: weight ~n pushes the
        // weighted sum past f32::MAX → δ2 = ±INF → magnitude-scan fallback.
        let n = 64;
        let (mut v, s, ws) = make_vector(n);
        let truth = v[60];
        v[60] = 3.0e38; // weight 61 × 3e38 overflows
        let (_, c2, _) = vector_sums(&v);
        assert!(c2.is_infinite(), "test premise: weighted sum overflows");
        let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
        assert!(
            matches!(verdict, VectorVerdict::Corrected { .. }),
            "{verdict:?}"
        );
        assert!((v[60] - truth).abs() < 1e-2);
    }

    #[test]
    fn corrects_moderate_error_by_delta_add() {
        let (mut v, s, ws) = make_vector(20);
        let truth = v[5];
        v[5] += 42.0;
        let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
        match verdict {
            VectorVerdict::Corrected {
                index,
                method,
                new_value,
                ..
            } => {
                assert_eq!(index, 5);
                assert_eq!(method, CorrectionMethod::DeltaAdd);
                assert!((new_value - truth).abs() < 1e-3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_but_sub_threshold_error_reconstructs() {
        // Magnitude above T_correct (1e5) but below T_near-INF (1e10):
        // δ-addition would absorb the small true value; the threshold routes
        // to reconstruction.
        let (mut v, s, ws) = make_vector(12);
        let truth = v[4];
        v[4] = 2.0e7;
        let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
        match verdict {
            VectorVerdict::Corrected { index, method, .. } => {
                assert_eq!(index, 4);
                assert_eq!(method, CorrectionMethod::Reconstruct);
            }
            other => panic!("{other:?}"),
        }
        assert!((v[4] - truth).abs() < 1.0);
    }

    #[test]
    fn two_infs_report_propagation() {
        let (mut v, s, ws) = make_vector(16);
        let before = v.clone();
        v[2] = f32::INFINITY;
        v[9] = f32::INFINITY;
        let verdict = eec_correct_vector(&mut v, s, ws, &cfg());
        assert_eq!(verdict, VectorVerdict::Propagated { suspects: 2 });
        // Untouched on abort.
        assert_eq!(v[0], before[0]);
    }

    #[test]
    fn full_vector_of_nans_reports_propagation() {
        let (mut v, s, ws) = make_vector(8);
        for x in v.iter_mut() {
            *x = f32::NAN;
        }
        assert_eq!(
            eec_correct_vector(&mut v, s, ws, &cfg()),
            VectorVerdict::Propagated { suspects: 8 }
        );
    }

    #[test]
    fn mixed_type_propagation_counts_all_kinds() {
        // The paper's mixed-type hazard: near-INF + INF + NaN in one vector.
        let (mut v, s, ws) = make_vector(12);
        v[1] = 5e11;
        v[4] = f32::NEG_INFINITY;
        v[8] = f32::NAN;
        match eec_correct_vector(&mut v, s, ws, &cfg()) {
            VectorVerdict::Propagated { suspects } => assert_eq!(suspects, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_moderate_errors_detected_as_propagation() {
        let (mut v, s, ws) = make_vector(16);
        v[3] += 10.0;
        v[11] += 25.0;
        // Finite deltas, no extreme census: the δ2-consistency cross-check
        // must reject the single-error hypothesis (paper case 4 gate).
        match eec_correct_vector(&mut v, s, ws, &cfg()) {
            VectorVerdict::Propagated { .. } => {}
            // A colliding pair can occasionally mimic a single error at a
            // legal index; accept correction only if it lands on neither.
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_unweighted_checksum_detected() {
        let (mut v, s, ws) = make_vector(16);
        let data = v.clone();
        let verdict = eec_correct_vector(&mut v, s + 50.0, ws, &cfg());
        assert_eq!(verdict, VectorVerdict::ChecksumCorrupt);
        assert_eq!(v, data, "data must be untouched");
    }

    #[test]
    fn corrupted_weighted_checksum_detected() {
        let (mut v, s, ws) = make_vector(16);
        let verdict = eec_correct_vector(&mut v, s, ws + 1e4, &cfg());
        assert_eq!(verdict, VectorVerdict::ChecksumCorrupt);
    }

    #[test]
    fn nan_checksum_with_clean_data_is_checksum_corrupt() {
        let (mut v, _s, ws) = make_vector(16);
        let verdict = eec_correct_vector(&mut v, f32::NAN, ws, &cfg());
        assert_eq!(verdict, VectorVerdict::ChecksumCorrupt);
    }

    #[test]
    fn inf_checksum_with_clean_data_is_checksum_corrupt() {
        let (mut v, _s, ws) = make_vector(16);
        let verdict = eec_correct_vector(&mut v, f32::INFINITY, ws, &cfg());
        assert_eq!(verdict, VectorVerdict::ChecksumCorrupt);
    }

    #[test]
    fn nan_data_with_nan_checksum_is_unrecoverable() {
        let (mut v, _s, ws) = make_vector(16);
        v[5] = f32::NAN;
        let verdict = eec_correct_vector(&mut v, f32::NAN, ws, &cfg());
        assert_eq!(verdict, VectorVerdict::Unrecoverable);
    }

    #[test]
    fn roundoff_noise_not_flagged() {
        let (mut v, s, ws) = make_vector(64);
        // Perturb within round-off scale.
        v[10] += 1e-6;
        assert!(eec_correct_vector(&mut v, s, ws, &cfg()).is_clean());
    }

    #[test]
    fn empty_vector_is_clean() {
        let mut v: Vec<f32> = vec![];
        assert!(eec_correct_vector(&mut v, 0.0, 0.0, &cfg()).is_clean());
    }

    #[test]
    fn single_element_vector_corrects() {
        let mut v = vec![2.5f32];
        let verdict = eec_correct_vector(&mut v, 2.5, 2.5, &cfg());
        assert!(verdict.is_clean());
        v[0] = f32::NAN;
        let verdict = eec_correct_vector(&mut v, 2.5, 2.5, &cfg());
        assert!(matches!(verdict, VectorVerdict::Corrected { .. }));
        assert!((v[0] - 2.5).abs() < 1e-6);
    }
}
