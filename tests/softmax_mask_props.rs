//! Property tests for the masked-softmax contract: no additive mask — not
//! even one that fully masks rows with literal `-INF` — may fabricate
//! NaNs, while the documented NaN-poisoning fault contract is preserved.
//! The plain softmax is private to `attn_tensor`; its public unguarded
//! form, and this suite's subject, is `softmax_rows_checked` under
//! `OpGuard::off()`.

use attn_tensor::guard::{softmax_rows_backward_checked, softmax_rows_checked};
use attn_tensor::ops::{apply_additive_mask, MASK_NEG};
use attn_tensor::{Matrix, OpGuard};
use proptest::prelude::*;

/// A finite logits matrix and an additive mask over it whose entries are
/// 0, `MASK_NEG`, or literal `-INF`, with at least one fully-masked row.
fn logits_and_mask() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..6, 1usize..8).prop_flat_map(|(rows, cols)| {
        let logits = prop::collection::vec(-30.0f32..30.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data));
        // Per-cell mask choice plus the index of a row forced fully masked.
        let mask_cells = prop::collection::vec(0usize..3, rows * cols);
        let forced_row = 0usize..rows;
        let hard_inf = 0usize..2;
        (logits, mask_cells, forced_row, hard_inf).prop_map(
            move |(logits, cells, forced, hard_inf)| {
                let blocked = if hard_inf == 1 {
                    f32::NEG_INFINITY
                } else {
                    MASK_NEG
                };
                let mut mask = Matrix::from_fn(rows, cols, |r, c| match cells[r * cols + c] {
                    0 => 0.0,
                    1 => MASK_NEG,
                    _ => blocked,
                });
                for c in 0..cols {
                    mask[(forced, c)] = blocked;
                }
                (logits, mask)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Masked softmax never yields NaN for any additive mask with at least
    /// one fully-masked row; every row is either a probability
    /// distribution or exactly zero.
    #[test]
    fn masked_softmax_never_yields_nan((logits, mask) in logits_and_mask()) {
        let mut x = logits;
        apply_additive_mask(&mut x, &mask);
        let y = softmax_rows_checked(&x, &OpGuard::off());
        prop_assert!(y.all_finite(), "masked softmax fabricated non-finite values");
        for r in 0..y.rows() {
            let row = y.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)), "row {r} out of range");
            let s: f32 = row.iter().sum();
            let fully_inf_masked =
                (0..y.cols()).all(|c| mask[(r, c)] == f32::NEG_INFINITY);
            if fully_inf_masked {
                prop_assert!(row.iter().all(|&v| v == 0.0), "fully-masked row {r} must be zero");
            } else {
                prop_assert!((s - 1.0).abs() < 1e-4 || s == 0.0, "row {r} sums to {s}");
            }
        }
    }

    /// The backward of a masked softmax is finite, and exactly zero on
    /// fully-masked (all-zero forward) rows.
    #[test]
    fn masked_softmax_backward_stays_finite((logits, mask) in logits_and_mask()) {
        let mut x = logits;
        apply_additive_mask(&mut x, &mask);
        let y = softmax_rows_checked(&x, &OpGuard::off());
        let dy = Matrix::from_fn(y.rows(), y.cols(), |r, c| ((r * 7 + c * 3) as f32).sin());
        let dx = softmax_rows_backward_checked(&y, &dy, &OpGuard::off());
        prop_assert!(dx.all_finite());
        for r in 0..y.rows() {
            if y.row(r).iter().all(|&v| v == 0.0) {
                prop_assert!(
                    dx.row(r).iter().all(|&v| v == 0.0),
                    "zero forward row {r} must have zero gradient"
                );
            }
        }
    }

    /// The NaN-poisoning fault contract survives the masked-row fix: a NaN
    /// planted in any row still poisons exactly that row.
    #[test]
    fn nan_poisoning_contract_is_preserved(
        (logits, mask) in logits_and_mask(),
        victim_frac in 0.0f64..1.0,
    ) {
        let mut x = logits;
        apply_additive_mask(&mut x, &mask);
        let victim = ((victim_frac * x.rows() as f64) as usize).min(x.rows() - 1);
        x[(victim, 0)] = f32::NAN;
        let y = softmax_rows_checked(&x, &OpGuard::off());
        prop_assert!(y.row(victim).iter().all(|v| v.is_nan()), "NaN must poison its row");
        for r in 0..y.rows() {
            if r != victim {
                prop_assert!(y.row(r).iter().all(|v| !v.is_nan()), "NaN leaked to row {r}");
            }
        }
    }
}
