//! The blocked accumulation-order contract — the one statement of it.
//!
//! Rollback-free recovery rests on one numerical fact: a checksum border
//! or a replayed dot product reproduces the packed kernel's bits. That
//! fact is an *order of additions*, and this module owns it. Every other
//! place that needs the order — the standalone encoders, exact replay,
//! KV-cache checksum pairs, border rebuilds after a correction — calls the
//! functions below instead of restating the loops.
//!
//! * **Element of a product** ([`dot`], [`dot_with`]). `C[i, j]` is
//!   accumulated per `k`-block: for each [`KC`]-sized block (ascending) a
//!   fresh `f32` partial sums `a[i,kk]·b[kk,j]` with `kk` ascending, and
//!   the partial is added to the zero-initialised output —
//!   `C[i,j] = ((0 + p₀) + p₁) + …`. The value depends only on row `i` of
//!   `op(A)`, column `j` of `op(B)` and `k` — never on `m`, `n`, the tile
//!   the element landed in, the layout (NN/NT/TN, dense or paged) or the
//!   worker count — which is why an augmented (checksum-bordered) product
//!   carries the same data bits as the plain one.
//! * **Row checksums** ([`row_sums`]). `(Σ, Σw)` of a row visits columns
//!   ascending within each [`NC`]-sized column block, a fresh partial pair
//!   per block, partials combined in block order on top of zero.
//! * **Column checksums** ([`col_sums`]). `(v1ᵀA, v2ᵀA)` visits rows
//!   ascending within each [`MC`]-sized row block, a fresh partial pair per
//!   block and column, partials combined in block order on top of zero.
//!
//! The weighted vector is `v2 = [1, 2, …]` ([`weight`]), indexed by the
//! element's *global* row/column.
//!
//! The packed kernel states the same order twice more, in shapes chosen
//! for speed: the register microkernel with `compute_tile`'s KC loop
//! (elements; the in-packing checksum sweep below with the driver's
//! block-order reduction feeds the column border) and
//! `encode_border_cols`' row-major sweep (the streaming checksum
//! border). Each is pinned to the function here by a bit-equality test
//! (`tests/gemm_tiled_props.rs`, this module's tests). A dispatch tier with
//! a different order changes this module and those two, nothing else.

use crate::gemm::{KC, MC, NC};
use crate::pack::{Src, SrcRead};
use crate::view::MatRef;
use crate::workspace;
use std::ops::Range;

/// Weighted-checksum weight of row/column `i` (1-based, the `v2` vector).
#[inline]
pub fn weight(i: usize) -> f32 {
    (i + 1) as f32
}

/// One element of an `op(A)·op(B)` product, replayed bit-for-bit: `a` is
/// the element's row of `op(A)`, `b(kk)` its column of `op(B)`. This is
/// exact post-correction replay (`attnchecker::section::replay_nn`).
#[inline]
pub fn dot_with(a: &[f32], b: impl Fn(usize) -> f32) -> f32 {
    let mut acc = 0.0f32;
    for (blk, ab) in a.chunks(KC).enumerate() {
        let mut part = 0.0f32;
        for (kk, &av) in ab.iter().enumerate() {
            part += av * b(blk * KC + kk);
        }
        acc += part;
    }
    acc
}

/// [`dot_with`] over two slices of equal length — the same order, zipped
/// block by block; the reference the kernel's and [`dots_pair`]'s elements
/// are pinned to.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (ab, bb) in a.chunks(KC).zip(b.chunks(KC)) {
        let mut part = 0.0f32;
        for (&x, &y) in ab.iter().zip(bb) {
            part += x * y;
        }
        acc += part;
    }
    acc
}

/// `R` left rows against one *pair* of right columns in a single pass:
/// `out[r] = [dot(rows[r], b0), dot(rows[r], b1)]`, `pair` yielding
/// `(b0[kk], b1[kk])` for `kk` ascending. Each of the `2·R` chains is the
/// element contract exactly as [`dot`] states it; they are independent, so
/// the pass is not latency-bound the way `2·R` serial dots are. The decode
/// step's checksum side has this shape: three augmented rows against a K
/// block's two tails, or against V's inline `(Σ, Σw)` pair.
#[inline]
pub fn dots_pair<const R: usize>(
    rows: [&[f32]; R],
    pair: impl Iterator<Item = (f32, f32)>,
) -> [[f32; 2]; R] {
    let (mut acc, mut part) = ([[0.0f32; 2]; R], [[0.0f32; 2]; R]);
    let k = rows.first().map_or(0, |r| r.len());
    debug_assert!(rows.iter().all(|r| r.len() == k));
    let mut kk = 0;
    for (b0, b1) in pair {
        for (p, row) in part.iter_mut().zip(&rows) {
            p[0] += row[kk] * b0;
            p[1] += row[kk] * b1;
        }
        kk += 1;
        // A block ends at every KC-th element and at the last one.
        if kk % KC == 0 || kk == k {
            for (o, p) in acc.iter_mut().zip(part.iter_mut()) {
                *o = [o[0] + p[0], o[1] + p[1]];
                *p = [0.0; 2];
            }
        }
    }
    debug_assert_eq!(kk, k, "dots_pair: pair length");
    acc
}

/// `(Σ, Σw)` of one row under the row-checksum contract: columns ascending
/// within each [`NC`] column block (sequential horizontal sums — the add
/// order *is* the contract, so no lane splitting), a fresh partial pair
/// per block, combined in block order on top of zero.
#[inline]
pub fn row_sums(row: &[f32]) -> (f32, f32) {
    let (mut s, mut ws) = (0.0f32, 0.0f32);
    for (blk, vals) in row.chunks(NC).enumerate() {
        let (mut ps, mut pws) = (0.0f32, 0.0f32);
        for (j, &v) in vals.iter().enumerate() {
            ps += v;
            pws += weight(blk * NC + j) * v;
        }
        s += ps;
        ws += pws;
    }
    (s, ws)
}

/// `(v1ᵀA, v2ᵀA)` over columns `cols` of `a`, under the column-checksum
/// contract, into `cs = [Σ(n) | Σw(n)]` with `n = cols.len()` (overwritten).
///
/// # Panics
/// Panics if `cols` exceeds `a`'s width or `cs.len() != 2 * cols.len()`.
pub fn col_sums(a: MatRef<'_>, cols: Range<usize>, cs: &mut [f32]) {
    assert!(
        cols.start <= cols.end && cols.end <= a.cols(),
        "col_sums: column range"
    );
    assert_eq!(cs.len(), 2 * cols.len(), "col_sums: output length");
    cs.fill(0.0);
    // The column range is a strided view: same rows, storage offset by its
    // first column (clamped, because a 0-row matrix has no storage).
    let src = Src {
        data: &a.data()[cols.start.min(a.data().len())..],
        ld: a.cols().max(1),
        trans: false,
    };
    col_sums_src(src, a.rows(), cols.len(), cs);
}

/// [`col_sums`] over any packing source (`m × k` logical), accumulating
/// onto a zeroed `cs = [Σ(k) | Σw(k)]` — what a fused product whose border
/// rides the padding lanes computes ahead of the driver.
pub(crate) fn col_sums_src<A: SrcRead>(a: A, m: usize, k: usize, cs: &mut [f32]) {
    if m <= MC {
        // One row block: its partial *is* the result. A partial grown from
        // +0.0 is never −0.0, so the staged `0 + partial` is a bitwise
        // identity and the block accumulates straight onto the zeroed `cs`.
        let (sum, wsum) = cs.split_at_mut(k);
        return accum_col_cs(a, 0, m, 0, k, &mut ColCsAccum { sum, wsum });
    }
    let mut part = workspace::take(2 * k);
    for i0 in (0..m).step_by(MC) {
        part.fill(0.0);
        let (sum, wsum) = part.split_at_mut(k);
        accum_col_cs(a, i0, MC.min(m - i0), 0, k, &mut ColCsAccum { sum, wsum });
        for (o, &p) in cs.iter_mut().zip(part.iter()) {
            *o += p;
        }
    }
}

/// Fused column-checksum accumulator: per-k-column running `(Σ, Σw)` sums
/// for one `MC` row-block of `op(A)`. Slices span the *full* k dimension;
/// packing a `(i0, p0)` block touches indices `p0..p0+kc`.
pub(crate) struct ColCsAccum<'a> {
    pub sum: &'a mut [f32],
    pub wsum: &'a mut [f32],
}

/// Column-checksum sweep over `op(A)[i0..i0+mc, p0..p0+kc]` — one row
/// block's partial. In the packed kernel it runs back-to-back with
/// `pack_a_block` while the block is cache-hot.
///
/// Rows ascending per column within the block (the row-major sweep
/// vectorises across `kk` without changing any column's add order).
pub(crate) fn accum_col_cs<A: SrcRead>(
    a: A,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    acc: &mut ColCsAccum<'_>,
) {
    let sum = &mut acc.sum[p0..p0 + kc];
    let wsum = &mut acc.wsum[p0..p0 + kc];
    for r in i0..i0 + mc {
        let w = weight(r);
        if let Some(row) = a.row_slice(r, p0, kc) {
            for ((s, ws), &v) in sum.iter_mut().zip(wsum.iter_mut()).zip(row) {
                *s += v;
                *ws += w * v;
            }
        } else {
            for kk in 0..kc {
                let v = a.at(r, p0 + kk);
                sum[kk] += v;
                wsum[kk] += w * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::rng::TensorRng;

    /// The contract written out longhand, independent of the functions
    /// under test: the reference every statement of the order is pinned to.
    fn longhand_dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        let mut p0 = 0;
        while p0 < a.len() {
            let pend = (p0 + KC).min(a.len());
            let mut part = 0.0f32;
            for kk in p0..pend {
                part += a[kk] * b[kk];
            }
            acc += part;
            p0 = pend;
        }
        acc
    }

    #[test]
    fn dot_forms_agree_with_the_longhand_order_and_the_microkernel() {
        let mut rng = TensorRng::seed_from(3);
        for &k in &[0usize, 1, KC - 1, KC, KC + 1, 2 * KC + 37] {
            let a = rng.uniform_matrix(1, k.max(1), -1.0, 1.0);
            let b = rng.uniform_matrix(k.max(1), 1, -1.0, 1.0);
            let (ar, bc) = (&a.row(0)[..k], &b.data()[..k]);
            let want = longhand_dot(ar, bc).to_bits();
            assert_eq!(dot(ar, bc).to_bits(), want, "k={k}");
            assert_eq!(dot_with(ar, |kk| bc[kk]).to_bits(), want, "k={k}");
            if k > 0 {
                assert_eq!(matmul(&a, &b)[(0, 0)].to_bits(), want, "k={k}: kernel");
            }
        }
    }

    #[test]
    fn row_and_column_sums_follow_their_block_order() {
        let mut rng = TensorRng::seed_from(5);
        let (m, n) = (2 * MC + 9, 2 * NC + 7);
        let a = rng.uniform_matrix(m, n, -1.0, 1.0);
        for r in [0, m - 1] {
            let (mut s, mut ws) = (0.0f32, 0.0f32);
            for c0 in (0..n).step_by(NC) {
                let (mut ps, mut pws) = (0.0f32, 0.0f32);
                for c in c0..(c0 + NC).min(n) {
                    ps += a[(r, c)];
                    pws += weight(c) * a[(r, c)];
                }
                s += ps;
                ws += pws;
            }
            let got = row_sums(a.row(r));
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (s.to_bits(), ws.to_bits())
            );
        }
        let mut cs = vec![f32::NAN; 2 * n];
        col_sums(a.view(), 0..n, &mut cs);
        for c in [0, n - 1] {
            let (mut s, mut ws) = (0.0f32, 0.0f32);
            for r0 in (0..m).step_by(MC) {
                let (mut ps, mut pws) = (0.0f32, 0.0f32);
                for r in r0..(r0 + MC).min(m) {
                    ps += a[(r, c)];
                    pws += weight(r) * a[(r, c)];
                }
                s += ps;
                ws += pws;
            }
            assert_eq!(
                (cs[c].to_bits(), cs[n + c].to_bits()),
                (s.to_bits(), ws.to_bits())
            );
            // A one-column range is the same function of that column.
            let mut one = [f32::NAN; 2];
            col_sums(a.view(), c..c + 1, &mut one);
            assert_eq!(
                (one[0].to_bits(), one[1].to_bits()),
                (s.to_bits(), ws.to_bits())
            );
        }
    }
}
