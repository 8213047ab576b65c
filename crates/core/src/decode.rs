//! The one ABFT-protected attention, over a checksummed KV cache:
//! [`extend`] appends m new rows (a whole training sequence, a whole
//! prompt, a prefill chunk, or one decoded token) and attends them to the
//! grown prefix.
//!
//! Training, prefill and decode all run it: the training forward is
//! `extend` over an empty cache that also records the backward tape,
//! serving is `extend` over a session's cache without one. Its GEMMs sit
//! in the three guarded sections — `S_AS` (Q/K projections + the appended
//! `q·Kᵀ` score rows), `S_CL` (V projection + `ap·V`), `S_O` (output
//! projection) — at any row count m, with three cache-specific twists:
//!
//! * **Incremental cache encoding.** [`AttnKvCache`] stores per-head K
//!   rows in fixed-size [`PagedKv`] blocks, each block carrying its own
//!   two column-checksum tail rows over **local** (position-within-block)
//!   weights — so a block is a self-verifying unit that a parking or
//!   compaction pass can check where it lies ([`AttnKvCache::verify`]
//!   runs the GEMM outputs' column pass over it, and the row pass over a
//!   V block) — and per-head V blocks with the two row-checksum columns
//!   inline in each row. Appending a row updates the current K block's
//!   tails in place — O(d) per row, not an O(seq·d) re-encode — and
//!   derives the V row's inline pair from the verified row, also O(d). The
//!   score rows' riding row checksums are assembled from the per-block
//!   tails (local weights shifted by each block's start offset), so the
//!   augmented layout downstream detection consumes is unchanged.
//! * **Verify-on-append.** [`extend`] heals `Q`/`K`/`V` *eagerly*, where
//!   they leave their projection and before the K/V rows join the cache:
//!   cache rows are long-lived state reused by every future step, and a
//!   surviving extreme value would both poison all later score rows and be
//!   folded into the incremental checksums, making it permanently
//!   invisible (training's backward pass reuses them from the tape too).
//!   The score, context, and output GEMMs keep the delayed-detection shape.
//! * **The blocked accumulation contract.** Every GEMM here runs the
//!   packed kernels, whose per-element accumulation order
//!   (`attn_tensor::contract`) does not depend on m, so each extended row
//!   is **bit-identical** to the same row of one `extend` over the whole
//!   grown prefix, whatever the chunking — the parity property
//!   `tests/decode_parity.rs` pins — and exact replay restores corrected
//!   elements to their original bits.

use crate::attention::{
    AttentionWeightsRef, AttnCache, AttnOp, FaultSite, ForwardCtx, ProtectedAttention,
};
use crate::checked::CheckedMatrix;
use crate::checksum::weight;
use crate::config::AbftConfig;
use crate::detect::{correct_columns, correct_rows, Bordered};
use crate::report::{AbftReport, SectionId};
use crate::section::{replay_nn, Ctx, Detection};
use attn_tensor::guard::softmax_rows_checked_inplace;
use attn_tensor::kv::PagedKv;
use attn_tensor::ops::apply_additive_mask;
use attn_tensor::{contract, gemm, Matrix};

/// Default data rows per KV block — the verify-on-move granularity.
pub const KV_BLOCK_ROWS: usize = 16;

/// Per-session, per-layer KV cache with incrementally maintained checksums.
#[derive(Debug)]
pub struct AttnKvCache {
    heads: usize,
    d: usize,
    block_rows: usize,
    /// Per-head paged key storage, `d`-wide rows; each block carries 2
    /// column-checksum tail rows over local weights when checksummed.
    k: Vec<PagedKv>,
    /// Per-head paged value storage; rows are `d + 2` wide when
    /// checksummed (data followed by the row-checksum pair), `d` wide
    /// otherwise. No block tails — rows self-verify.
    v: Vec<PagedKv>,
    /// Whether checksum borders are maintained (protection not hard-off).
    checksummed: bool,
}

impl AttnKvCache {
    /// Empty cache for a `hidden`-wide, `heads`-headed attention block.
    /// `checksummed` controls whether ABFT borders are maintained; an
    /// unprotected serving path skips them entirely.
    ///
    /// # Panics
    /// Panics when `heads` does not divide `hidden`.
    pub fn new(hidden: usize, heads: usize, checksummed: bool) -> Self {
        Self::with_block_rows(hidden, heads, checksummed, KV_BLOCK_ROWS)
    }

    /// [`Self::new`] with an explicit paging granularity (tests exercise
    /// awkward block sizes; the result bits never depend on the choice).
    ///
    /// # Panics
    /// Panics past `gemm::MC` rows per block: up to there the contract's
    /// column sums, which rebuild a repaired K tail, accumulate in
    /// [`Self::append_k`]'s order.
    fn with_block_rows(hidden: usize, heads: usize, checksummed: bool, block_rows: usize) -> Self {
        assert!(
            heads > 0 && hidden.is_multiple_of(heads),
            "heads must divide hidden"
        );
        assert!(block_rows <= gemm::MC, "block_rows past gemm::MC");
        let d = hidden / heads;
        let k_tail = if checksummed { 2 } else { 0 };
        let v_width = d + if checksummed { 2 } else { 0 };
        Self {
            heads,
            d,
            block_rows,
            k: (0..heads)
                .map(|_| PagedKv::new(d, k_tail, block_rows))
                .collect(),
            v: (0..heads)
                .map(|_| PagedKv::new(v_width, 0, block_rows))
                .collect(),
            checksummed,
        }
    }

    /// Cache sized for `attn`, checksummed unless protection is hard-off.
    pub fn for_attention(attn: &ProtectedAttention) -> Self {
        Self::new(
            attn.weights.hidden,
            attn.weights.heads,
            !attn.config.is_off(),
        )
    }

    /// Cached tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.k[0].rows()
    }

    /// True before the first append.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Head count.
    #[inline]
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head width.
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.d
    }

    /// Whether checksum borders are maintained.
    #[inline]
    pub fn checksummed(&self) -> bool {
        self.checksummed
    }

    /// Paging granularity (data rows per block).
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Append one (verified) full-width key row, splitting it per head and
    /// folding each element into its block's column-checksum tails —
    /// O(hidden) total, independent of the cached prefix length. Tails use
    /// **local** weights (`weight(idx % block_rows)`), so a block's
    /// checksums are position-independent and survive eviction/compaction.
    fn append_k(&mut self, k_row: &[f32]) {
        assert_eq!(k_row.len(), self.heads * self.d, "append_k: width");
        for (h, kb) in self.k.iter_mut().enumerate() {
            let seg = &k_row[h * self.d..(h + 1) * self.d];
            let idx = kb.push_row(seg);
            if self.checksummed {
                let b = idx / self.block_rows;
                let w = weight(idx % self.block_rows);
                for (t0, &v) in kb.tail_row_mut(b, 0).iter_mut().zip(seg) {
                    *t0 += v;
                }
                for (t1, &v) in kb.tail_row_mut(b, 1).iter_mut().zip(seg) {
                    *t1 += w * v;
                }
            }
        }
    }

    /// Append one head's (verified) plain value row. A checksummed cache
    /// stores it followed by its `(Σ, Σw)` pair, derived from the row under
    /// the encoder contract (`contract::row_sums`) — by [`extend`] and by
    /// [`Self::seed`]; the at-rest repair in [`Self::verify`] rebuilds a
    /// pair under the same contract.
    ///
    /// # Panics
    /// Panics on width mismatch or when called with head rows out of sync
    /// with [`Self::append_k`].
    fn append_v(&mut self, head: usize, v_row: &[f32]) {
        assert_eq!(v_row.len(), self.d, "append_v: head width");
        let vb = &mut self.v[head];
        if !self.checksummed {
            vb.push_row(v_row);
            return;
        }
        let (s, ws) = contract::row_sums(v_row);
        vb.push_row_with(|row| {
            let (data, pair) = row.split_at_mut(v_row.len());
            data.copy_from_slice(v_row);
            pair.copy_from_slice(&[s, ws]);
        });
    }

    /// Seed the cache from given K/V activations (`seq × hidden`), row by
    /// row, so the cache state is exactly what [`extend`] would have
    /// appended for them. Serving never calls it; it stays only because the
    /// benchmark's probes fill a cache of a chosen length with it.
    pub fn seed(&mut self, k: &Matrix, v: &Matrix) {
        assert_eq!(k.cols(), self.heads * self.d);
        assert_eq!((k.rows(), k.cols()), (v.rows(), v.cols()));
        for r in 0..k.rows() {
            self.append_k(k.row(r));
            for h in 0..self.heads {
                self.append_v(h, &v.row(r)[h * self.d..(h + 1) * self.d]);
            }
        }
    }

    /// Key element `(token, kk)` of `head` — the replay view of the cache.
    #[inline]
    fn k_at(&self, head: usize, token: usize, kk: usize) -> f32 {
        self.k[head].at(token, kk)
    }

    /// Value element `(token, c)` of `head`.
    #[inline]
    fn v_at(&self, head: usize, token: usize, c: usize) -> f32 {
        self.v[head].at(token, c)
    }

    /// The appended score rows `q_h · K_hᵀ` over the grown cache, computed
    /// with the packed NT kernel directly over the paged storage (no
    /// gather copy — the kernel reads logical rows through block views).
    /// `q_h`'s column checksums (2 more buffer rows) ride through; the
    /// riding row checksums are assembled from the per-block tails — block
    /// `b`'s local weights shift by its start offset, `Σ_r weight(r)·s_r =
    /// Σ_b [q·t1_b + start_b·(q·t0_b)]` — so the augmented layout
    /// downstream detection consumes is `S_AS` acquiring both borders.
    #[allow(
        clippy::disallowed_methods,
        reason = "a guarded product: the paged kernel fills the data and both checksum borders"
    )]
    fn score_row(&self, q_h: &CheckedMatrix, head: usize) -> CheckedMatrix {
        assert_eq!(q_h.cols(), self.d, "score_row: head width");
        let kb = &self.k[head];
        let len = kb.rows();
        let qb = q_h.buf();
        let width = if self.checksummed { len + 2 } else { len };
        let mut buf = Matrix::zeros(qb.rows(), width);
        gemm::matmul_nt_paged_into(qb.view(), kb, buf.view_mut());
        if self.checksummed {
            // Three buffer rows per pass; a short last group repeats its
            // final row — the chains are independent, so the pass costs the
            // same (a guarded m = 1 step is exactly one pass).
            let last = qb.rows() - 1;
            for i0 in (0..qb.rows()).step_by(3) {
                let sums = self.tail_sums(head, [0, 1, 2].map(|i| qb.row((i0 + i).min(last))));
                for (r, s) in (i0..qb.rows()).zip(&sums) {
                    buf.row_mut(r)[len..].copy_from_slice(s);
                }
            }
        }
        let (m, has_cs) = (q_h.rows(), q_h.has_col_checksums());
        CheckedMatrix::from_augmented(m, len, has_cs, self.checksummed, buf)
    }

    /// `(Σ_r s_r, Σ_r weight(r)·s_r)` of the score rows `rows[i] · K_hᵀ`,
    /// assembled from the per-block tails: `rows[i] · t0_b` and
    /// `rows[i] · t1_b` are contract elements ([`contract::dots_pair`], all
    /// of a block's in one pass), combined in block order with block `b`'s
    /// local weights shifted by its start offset.
    fn tail_sums(&self, head: usize, rows: [&[f32]; 3]) -> [[f32; 2]; 3] {
        let kb = &self.k[head];
        let mut sums = [[0.0f32; 2]; 3];
        for b in 0..kb.num_blocks() {
            let tails = kb.tail_row(b, 0).iter().zip(kb.tail_row(b, 1));
            let dots = contract::dots_pair(rows, tails.map(|(&t0, &t1)| (t0, t1)));
            let start = (b * self.block_rows) as f32;
            for ([cs, wcs], [p0, p1]) in sums.iter_mut().zip(dots) {
                *cs += p0;
                *wcs += p1 + start * p0;
            }
        }
        sums
    }

    /// The appended context rows `ap · V_h` over the grown cache. When
    /// `active`, `ap`'s column encoding rides inside the GEMM's packing
    /// pass (the fused §4.6 entry) and the cache rows' inline row
    /// checksums ride through to the product.
    #[allow(
        clippy::disallowed_methods,
        reason = "a guarded product: the paged fused entry encodes `ap` inside the kernel"
    )]
    fn context_row(&self, ap: &Matrix, head: usize, active: bool) -> CheckedMatrix {
        let (vb, m) = (&self.v[head], ap.rows());
        assert_eq!(ap.cols(), vb.rows(), "context_row: prefix length");
        if active {
            let mut buf = Matrix::zeros(m + 2, vb.cols());
            gemm::gemm_encode_cols_paged_into(ap.view(), vb, buf.view_mut());
            CheckedMatrix::from_augmented(m, self.d, true, self.checksummed, buf)
        } else {
            // An unguarded step returns plain data, exactly like the
            // inactive training sections: the data columns only, whether
            // or not the cache rows carry a pair after them.
            let mut buf = Matrix::zeros(m, self.d);
            gemm::matmul_paged_into(ap.view(), vb, buf.view_mut());
            CheckedMatrix::from_plain_owned(buf)
        }
    }

    /// Mutable key row `token` of `head` (data cells only; campaigns and
    /// tests strike at-rest faults here).
    pub fn k_row_mut(&mut self, head: usize, token: usize) -> &mut [f32] {
        self.k[head].row_mut(token)
    }

    /// Mutable stored value row `token` of `head`: the `head_dim` data
    /// cells followed, in a checksummed cache, by the inline `(Σ, Σw)` pair.
    pub fn v_row_mut(&mut self, head: usize, token: usize) -> &mut [f32] {
        self.v[head].row_mut(token)
    }

    /// Verify the cache where it lies, through the same two EEC passes as a
    /// GEMM output: each K block is a column-bordered matrix (its data rows,
    /// then its two local-weight tail rows), each V block a row-bordered one
    /// (each row's `head_dim` cells, then its `(Σ, Σw)` pair). Single
    /// corrupted elements are corrected (recorded in `report` at their cache
    /// row), corrupted checksums are rebuilt, and multi-element damage is
    /// counted as unrecovered — the sweep never panics. A corrected vector's
    /// border is then rebuilt from its repaired data: the sums `append_k` /
    /// `append_v` store for it. This is the whole of verify-on-move: a
    /// parked cache is these same blocks, so parking and unparking each run
    /// this once. No-op on an unchecksummed cache.
    pub fn verify(&mut self, cfg: &AbftConfig, report: &mut AbftReport) {
        if !self.checksummed {
            return;
        }
        let (d, n) = (self.d, self.block_rows);
        for h in 0..self.heads {
            let kb = &mut self.k[h];
            for b in 0..kb.num_blocks() {
                let len = kb.block_len(b);
                let mut block = Bordered::new(kb.block_mut(b), len, d, d).col_border(n);
                let mut pass = correct_columns(&mut block, cfg);
                for f in &mut pass.fixes {
                    block.recompute_col_checksum(f.col);
                    f.row += b * n;
                }
                Detection::one_sided(pass, SectionId::AttentionScore, h, *cfg).absorb(report);
            }
            let vb = &mut self.v[h];
            for b in 0..vb.num_blocks() {
                let len = vb.block_len(b);
                let mut block = Bordered::new(vb.block_mut(b), len, d, d + 2).row_border();
                let mut pass = correct_rows(&mut block, cfg);
                for f in &mut pass.fixes {
                    block.recompute_row_checksum(f.row);
                    f.row += b * n;
                }
                Detection::one_sided(pass, SectionId::ContextLayer, h, *cfg).absorb(report);
            }
        }
    }
}

impl ProtectedAttention {
    /// [`extend`] over the owned weights, without a tape, under its own op
    /// guard — kept only because the benchmark's adapter
    /// (`benchmark/src/api.rs`) calls it.
    pub fn decode_step(
        &self,
        x: &Matrix,
        cache: &mut AttnKvCache,
        ctx: &mut ForwardCtx<'_, '_>,
    ) -> Matrix {
        let hook = ctx.hook.as_mut().map(|h| &mut **h as _);
        let mut step = Ctx::new(&self.config, ctx.toggles, &mut *ctx.report);
        (step.mask, step.hook) = (ctx.mask, hook);
        extend(&(&self.weights).into(), x, cache, &mut step).0
    }
}

/// The one protected attention, for m ≥ 1 new rows: append the rows of
/// `x` (`m × hidden`, the block input at positions `len..len+m`) to `cache`
/// and return their attention output (`m × hidden`) plus — when
/// `ctx.taped` — their backward tape (post-correction: `q`/`k`/`v` are the
/// healed rows that joined the cache). Prefill is `extend` over an empty
/// cache, a decode step its m = 1 case, and the training forward the same
/// empty-cache call with the tape recorded; serving asks for no tape and
/// pays for none. The per-head softmax rows run under `ctx.guard()`, so a
/// model forward screens all its non-GEMM ops in one scope.
///
/// `ctx.mask`, when present, must be rows `len..len+m` of the mask over
/// the grown prefix (`m × (len+m)`), e.g. those rows of the causal or
/// local-banded mask — causality *inside* the chunk comes only from it;
/// without one every row sees the whole grown prefix (bidirectional
/// attention over an empty cache). Hooks fire once at every [`FaultSite`]
/// on the m-row matrices, whether or not its section is active.
///
/// Fault-free, the returned rows are bit-identical to rows `len..len+m` of
/// one `extend` of the whole grown prefix under the same mask, whatever
/// the chunking (see the module docs for why the contract holds); after
/// an injected extreme value in any of the six GEMMs they are *still*
/// bit-identical, via checksum correction plus exact replay.
///
/// # Panics
/// Panics on zero rows and on shape mismatches (input width, cache
/// geometry, mask rows).
#[allow(clippy::needless_range_loop)] // head index drives several buffers
pub fn extend(
    w: &AttentionWeightsRef<'_>,
    x: &Matrix,
    cache: &mut AttnKvCache,
    ctx: &mut Ctx<'_, '_>,
) -> (Matrix, Option<AttnCache>) {
    let (d, shape) = (w.head_dim(), (x.cols(), cache.heads(), cache.head_dim()));
    assert_eq!(shape, (w.hidden, w.heads, d), "extend: shapes");
    assert!(x.rows() > 0, "extend: no rows");
    let scale = 1.0 / (d as f32).sqrt();
    let (mask, taped) = (ctx.mask, ctx.taped);
    if let Some(m) = mask {
        let want = (x.rows(), cache.len() + x.rows());
        assert_eq!((m.rows(), m.cols()), want, "extend: mask rows");
    }
    let site = |op, head| FaultSite { op, head };

    let s_as = ctx.section(SectionId::AttentionScore);
    let s_cl = ctx.section(SectionId::ContextLayer);
    let s_o = ctx.section(SectionId::Output);

    // ------------------------------------------------ section S_AS
    // The new rows' projections through the fused encode entry: their
    // column checksums accumulate inside the GEMM packing pass.
    let mut q = s_as.gemm(x, w.wq);
    let mut k = s_as.gemm(x, w.wk);
    q.add_bias(w.bq);
    k.add_bias(w.bk);
    // Verify-on-append (see module docs): heal eagerly — K joins
    // long-lived cache state this step, Q feeds every head's score rows.
    s_as.heal_operand_cols(&mut q, site(AttnOp::Q, None), ctx, |r, c| {
        replay_nn(x.row(r), |kk| w.wq[(kk, c)]) + w.bq[c]
    });
    s_as.heal_operand_cols(&mut k, site(AttnOp::K, None), ctx, |r, c| {
        replay_nn(x.row(r), |kk| w.wk[(kk, c)]) + w.bk[c]
    });
    for r in 0..x.rows() {
        cache.append_k(k.logical_row(r));
    }

    let mut ap_rows: Vec<Matrix> = Vec::with_capacity(w.heads);
    for h in 0..w.heads {
        let qh = q.slice_cols(h * d, (h + 1) * d);
        let mut as_row = cache.score_row(&qh, h);
        as_row.scale_inplace(scale);
        s_as.check(&mut as_row, site(AttnOp::AS, Some(h)), ctx, |r, c| {
            replay_nn(qh.logical_row(r), |kk| cache.k_at(h, c, kk)) * scale
        });

        // Leave the checksummed region: mask + softmax are nonlinear;
        // the re-encoding rides inside the fused `ap·V` entry below.
        let ap = s_cl.exit_cols(&as_row, |m| {
            if let Some(mrows) = mask {
                apply_additive_mask(m, mrows);
            }
            // A softmax heal recomputes from the pre-softmax rows:
            // `as_row` + mask again, rebuilt only when the screen fails.
            softmax_rows_checked_inplace(m, ctx.guard(), || {
                let mut pre = as_row.logical();
                if let Some(mrows) = mask {
                    apply_additive_mask(&mut pre, mrows);
                }
                pre
            });
        });
        ap_rows.push(ap);
    }

    // ------------------------------------------------ section S_CL
    // One V projection for all heads, entered like Q and K: the rows'
    // column checksums restrict exactly to each head's column range.
    let mut v = s_cl.gemm(x, w.wv);
    v.add_bias(w.bv);
    // The tape's V is assembled from the healed per-head rows: the slices
    // below are copies, so `v` itself keeps any struck value.
    let mut v_tape = taped.then(|| Matrix::zeros(x.rows(), w.hidden));
    let mut cl_blocks = Vec::with_capacity(w.heads);
    for h in 0..w.heads {
        let mut v_h = v.slice_cols(h * d, (h + 1) * d);
        // Verify-on-append: the V rows join the cache now, before any
        // context row reads it.
        s_cl.heal_operand_cols(&mut v_h, site(AttnOp::V, Some(h)), ctx, |r, c| {
            replay_nn(x.row(r), |kk| w.wv[(kk, h * d + c)]) + w.bv[h * d + c]
        });
        for r in 0..x.rows() {
            cache.append_v(h, v_h.logical_row(r));
            if let Some(t) = v_tape.as_mut() {
                t.row_mut(r)[h * d..(h + 1) * d].copy_from_slice(v_h.logical_row(r));
            }
        }

        let ap = &ap_rows[h];
        let mut cl_row = cache.context_row(ap, h, s_cl.active());
        s_cl.check(&mut cl_row, site(AttnOp::CL, Some(h)), ctx, |r, c| {
            replay_nn(ap.row(r), |kk| cache.v_at(h, kk, c))
        });
        cl_blocks.push(cl_row);
    }
    let cl_merged = CheckedMatrix::concat_cols(&cl_blocks);

    // ------------------------------------------------ section S_O
    let o = s_o.project(&cl_merged, w.wo, w.bo, AttnOp::O, ctx);
    let tape = v_tape.map(|v_healed| AttnCache {
        x: x.clone(),
        q: q.into_logical(),
        k: k.into_logical(),
        v: v_healed,
        ap: ap_rows,
        cl: cl_merged.into_logical(),
    });
    (o.into_logical(), tape)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // step index t addresses parallel row/prefix structures
mod tests {
    use super::*;
    use crate::attention::{AttentionWeights, FaultHook, ForwardOptions, SectionToggles};
    use crate::config::ProtectionConfig;
    use crate::report::AbftReport;
    use attn_fault::FaultKind;
    use attn_tensor::ops::causal_mask;
    use attn_tensor::rng::TensorRng;
    use attn_tensor::workspace;

    fn setup(seq: usize, hidden: usize, heads: usize) -> (Matrix, ProtectedAttention) {
        let mut rng = TensorRng::seed_from(77);
        let w = AttentionWeights::random(hidden, heads, &mut rng);
        let x = rng.normal_matrix(seq, hidden, 0.5);
        (x, ProtectedAttention::new(w, ProtectionConfig::full()))
    }

    fn decode_all(
        attn: &ProtectedAttention,
        x: &Matrix,
        masked: bool,
        toggles: SectionToggles,
    ) -> (Vec<Matrix>, AbftReport) {
        let mut cache = AttnKvCache::for_attention(attn);
        let mut report = AbftReport::default();
        let mut rows = Vec::new();
        for t in 0..x.rows() {
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let mask_row = masked.then(|| Matrix::zeros(1, t + 1));
            let mut ctx = ForwardCtx {
                mask: mask_row.as_ref(),
                toggles,
                hook: None,
                report: &mut report,
            };
            rows.push(attn.decode_step(&x_row, &mut cache, &mut ctx));
        }
        (rows, report)
    }

    #[test]
    fn decode_rows_are_bit_identical_to_full_forward_over_each_prefix() {
        let (x, attn) = setup(9, 32, 4);
        let (rows, report) = decode_all(&attn, &x, false, SectionToggles::all());
        assert!(
            report.is_quiet(),
            "fault-free decode must be quiet: {report}"
        );
        for t in 0..x.rows() {
            let prefix = x.submatrix(0, t + 1, 0, x.cols());
            let mut r = AbftReport::default();
            let full = attn.forward(&prefix, ForwardOptions::default(), &mut r);
            let full_row = full.output.row(t);
            let dec_row = rows[t].row(0);
            for (c, (a, b)) in dec_row.iter().zip(full_row).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "t={t} c={c}: decode {a} vs full {b}"
                );
            }
        }
    }

    #[test]
    fn decode_parity_holds_with_causal_mask_rows() {
        let (x, attn) = setup(7, 24, 3);
        let mut cache = AttnKvCache::for_attention(&attn);
        let mut report = AbftReport::default();
        for t in 0..x.rows() {
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let full_mask = causal_mask(t + 1);
            let mask_row = full_mask.submatrix(t, t + 1, 0, t + 1);
            let mut ctx = ForwardCtx {
                mask: Some(&mask_row),
                toggles: SectionToggles::all(),
                hook: None,
                report: &mut report,
            };
            let dec = attn.decode_step(&x_row, &mut cache, &mut ctx);

            let prefix = x.submatrix(0, t + 1, 0, x.cols());
            let mut r = AbftReport::default();
            let full = attn.forward(
                &prefix,
                ForwardOptions {
                    mask: Some(&full_mask),
                    ..Default::default()
                },
                &mut r,
            );
            assert_eq!(
                dec.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                full.output
                    .row(t)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "t={t}"
            );
        }
    }

    #[test]
    fn decode_parity_holds_with_sections_gated_off() {
        // Per-step frequency gating must not perturb logical values: an
        // unguarded decode step is bit-transparent, like inactive training
        // sections.
        let (x, attn) = setup(6, 16, 2);
        let (all_rows, _) = decode_all(&attn, &x, false, SectionToggles::all());
        let (none_rows, report) = decode_all(&attn, &x, false, SectionToggles::none());
        assert_eq!(report.sections_checked, 0);
        for (t, (a, b)) in all_rows.iter().zip(&none_rows).enumerate() {
            assert_eq!(a, b, "t={t}: gated-off step diverged");
        }
    }

    #[test]
    fn incremental_k_checksums_track_the_cache() {
        // 24 appends across two blocks: the incrementally maintained tails
        // and pairs still verify against the data they summarise.
        let (x, attn) = setup(24, 32, 4);
        let (mut cache, _, mut report) = grow_cache(&attn, &x, KV_BLOCK_ROWS, usize::MAX, None);
        assert_eq!(cache.len(), 24);
        cache.verify(&attn.config.abft, &mut report);
        assert!(report.is_quiet(), "incremental checksums drifted: {report}");
    }

    fn inject_then_check(op: AttnOp, kind: FaultKind, toggles: SectionToggles) {
        let (x, attn) = setup(8, 32, 4);
        let (clean_rows, _) = decode_all(&attn, &x, false, SectionToggles::all());

        let mut cache = AttnKvCache::for_attention(&attn);
        let mut report = AbftReport::default();
        let strike_at = 5usize; // a mid-sequence step with a grown cache
        for t in 0..x.rows() {
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let mut fired = false;
            let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                let right = site.op == op && (site.head.is_none() || site.head == Some(1));
                if right && !fired {
                    fired = true;
                    let (r, c) = (0, m.cols() * 2 / 3);
                    let old = m.get(r, c);
                    m.set(r, c, kind.apply(old));
                }
            };
            let mut ctx = ForwardCtx {
                mask: None,
                toggles,
                hook: (t == strike_at).then_some(&mut hook as _),
                report: &mut report,
            };
            let out = attn.decode_step(&x_row, &mut cache, &mut ctx);
            assert_eq!(
                out, clean_rows[t],
                "{op:?}/{kind:?} t={t}: corrected decode must match fault-free bits; {report}"
            );
            if t == strike_at {
                assert!(fired, "hook never fired for {op:?}");
            }
        }
        assert!(
            report.correction_count() > 0,
            "{op:?}/{kind:?}: no corrections recorded"
        );
        assert_eq!(report.unrecovered, 0, "{op:?}/{kind:?}");
    }

    #[test]
    fn decode_corrects_inf_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::Inf, SectionToggles::all());
        }
    }

    #[test]
    fn decode_corrects_nan_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::NaN, SectionToggles::all());
        }
    }

    #[test]
    fn decode_corrects_near_inf_at_every_site() {
        for op in AttnOp::ALL {
            inject_then_check(op, FaultKind::NearInf, SectionToggles::all());
        }
    }

    #[test]
    fn every_site_fires_exactly_once_per_extend() {
        // Q, K and O fire once per `extend`, V, AS and CL once per head — at
        // m = 1 and m > 1, over a grown cache, and on inactive sections too
        // (the unprotected-propagation tests strike through them). A site
        // fired by both a section step and its caller fails here.
        let (x, attn) = setup(7, 32, 4);
        let heads = attn.weights.heads;
        for toggles in [SectionToggles::all(), SectionToggles::none()] {
            for m in [1usize, 4] {
                let mut cache = AttnKvCache::for_attention(&attn);
                let mut report = AbftReport::default();
                let prefix = x.submatrix(0, 3, 0, x.cols());
                let mut ctx = ForwardCtx {
                    mask: None,
                    toggles,
                    hook: None,
                    report: &mut report,
                };
                attn.decode_step(&prefix, &mut cache, &mut ctx);
                let mut fired: Vec<FaultSite> = Vec::new();
                let mut hook = |site: FaultSite, _: &mut CheckedMatrix| fired.push(site);
                let mut ctx = ForwardCtx {
                    mask: None,
                    toggles,
                    hook: Some(&mut hook),
                    report: &mut report,
                };
                attn.decode_step(&x.submatrix(3, 3 + m, 0, x.cols()), &mut cache, &mut ctx);
                let count = |op, head| {
                    let site = FaultSite { op, head };
                    fired.iter().filter(|&&s| s == site).count()
                };
                for op in [AttnOp::Q, AttnOp::K, AttnOp::O] {
                    assert_eq!(count(op, None), 1, "{op:?} m={m} {toggles:?}");
                }
                for op in [AttnOp::V, AttnOp::AS, AttnOp::CL] {
                    for h in 0..heads {
                        assert_eq!(count(op, Some(h)), 1, "{op:?}/{h} m={m} {toggles:?}");
                    }
                }
                assert_eq!(fired.len(), 3 + 3 * heads, "m={m} {toggles:?}: {fired:?}");
            }
        }
    }

    #[test]
    fn each_section_alone_corrects_its_own_sites() {
        // At m = 1 a fault one section misses can be healed bit-exactly by
        // the next one's riding checksums, so only isolation shows that each
        // section's own `detect … absorb` block is there.
        for (toggles, sites) in crate::attention::tests::section_isolation_cases() {
            for &op in sites {
                inject_then_check(op, FaultKind::Inf, toggles);
            }
        }
    }

    /// Every stored bit of a cache: per head, each K block's data rows and
    /// its two checksum tail rows, then each V block's rows (inline `(Σ, Σw)`
    /// pairs included).
    fn cache_bits(cache: &AttnKvCache) -> Vec<u32> {
        let mut bits = Vec::new();
        for (kb, vb) in cache.k.iter().zip(&cache.v) {
            for b in 0..kb.num_blocks() {
                bits.extend(kb.block_data(b).iter().map(|v| v.to_bits()));
                for i in 0..kb.tail() {
                    bits.extend(kb.tail_row(b, i).iter().map(|v| v.to_bits()));
                }
            }
            for b in 0..vb.num_blocks() {
                bits.extend(vb.block_data(b).iter().map(|v| v.to_bits()));
            }
        }
        bits
    }

    /// Decode every row of `x` into a fresh cache with `block_rows` paging,
    /// a hook (if any) installed at step `strike_at` only.
    fn grow_cache(
        attn: &ProtectedAttention,
        x: &Matrix,
        block_rows: usize,
        strike_at: usize,
        mut hook: Option<FaultHook<'_>>,
    ) -> (AttnKvCache, Vec<Matrix>, AbftReport) {
        let w = &attn.weights;
        let mut cache = AttnKvCache::with_block_rows(w.hidden, w.heads, true, block_rows);
        let mut report = AbftReport::default();
        let mut rows = Vec::new();
        for t in 0..x.rows() {
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles::all(),
                hook: if t == strike_at {
                    hook.as_mut().map(|h| &mut **h as _)
                } else {
                    None
                },
                report: &mut report,
            };
            rows.push(attn.decode_step(&x_row, &mut cache, &mut ctx));
        }
        (cache, rows, report)
    }

    /// Extend a fresh cache with `block_rows` paging by the rows of `x` in
    /// chunks of the given sizes, each chunk causal inside itself through
    /// its rows of the causal mask; returns the outputs one row at a time.
    fn extend_chunks(
        attn: &ProtectedAttention,
        x: &Matrix,
        block_rows: usize,
        chunks: &[usize],
    ) -> (AttnKvCache, Vec<Matrix>, AbftReport) {
        let w = &attn.weights;
        let mut cache = AttnKvCache::with_block_rows(w.hidden, w.heads, true, block_rows);
        let mut report = AbftReport::default();
        let mut rows = Vec::new();
        let mut pos = 0;
        for &m in chunks {
            let end = pos + m;
            let mask = causal_mask(end).submatrix(pos, end, 0, end);
            let mut ctx = ForwardCtx {
                mask: Some(&mask),
                toggles: SectionToggles::all(),
                hook: None,
                report: &mut report,
            };
            let chunk = x.submatrix(pos, end, 0, x.cols());
            let out = attn.decode_step(&chunk, &mut cache, &mut ctx);
            rows.extend((0..m).map(|r| out.submatrix(r, r + 1, 0, out.cols())));
            pos = end;
        }
        (cache, rows, report)
    }

    #[test]
    fn decode_grown_cache_equals_seeded_cache_bit_for_bit() {
        // One way to produce a V row's inline pair and a K block's tails:
        // N decode appends, `seed()` over the full forward's K/V tape and
        // chunked `extend`s leave the same cache, checksums included — at
        // paging granularities that split, fill and overflow blocks, and at
        // chunk sizes that straddle them. The chunked rows are the decoded
        // ones too.
        let (x, attn) = setup(21, 32, 4);
        let mut r = AbftReport::default();
        let full = attn.forward(&x, ForwardOptions::default(), &mut r);
        for &block_rows in &[1usize, 4, 16, 64] {
            let (grown, grown_rows, report) = grow_cache(&attn, &x, block_rows, usize::MAX, None);
            assert!(report.is_quiet(), "{report}");
            let mut seeded = AttnKvCache::with_block_rows(32, 4, true, block_rows);
            seeded.seed(&full.cache.k, &full.cache.v);
            assert_eq!(grown.len(), seeded.len());
            assert!(
                cache_bits(&grown) == cache_bits(&seeded),
                "block_rows={block_rows}: decode appends and seed() disagree"
            );
            for chunks in [&[3usize, 1, 5, 2, 10][..], &[21], &[16, 5]] {
                let (chunked, rows, report) = extend_chunks(&attn, &x, block_rows, chunks);
                assert!(report.is_quiet(), "{chunks:?}: {report}");
                assert!(
                    cache_bits(&chunked) == cache_bits(&grown),
                    "block_rows={block_rows} chunks={chunks:?}: extend and decode appends disagree"
                );
                assert!(
                    rows == grown_rows,
                    "block_rows={block_rows} chunks={chunks:?}"
                );
            }
        }
    }

    #[test]
    fn v_fault_at_each_head_heals_and_the_stored_pair_verifies() {
        let (x, attn) = setup(8, 32, 4);
        let (clean_cache, clean_rows, _) = grow_cache(&attn, &x, 4, usize::MAX, None);
        let clean_bits = cache_bits(&clean_cache);
        for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
            for head in 0..4 {
                let mut fired = false;
                let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                    if site.op == AttnOp::V && site.head == Some(head) {
                        fired = true;
                        let c = (3 * head + 1) % m.cols();
                        m.set(0, c, kind.apply(m.get(0, c)));
                    }
                };
                let (mut cache, rows, report) = grow_cache(&attn, &x, 4, 5, Some(&mut hook));
                assert!(fired, "{kind:?} head {head}: hook never fired");
                assert_eq!(rows, clean_rows, "{kind:?} head {head}: outputs diverged");
                assert_eq!(
                    report.correction_count(),
                    1,
                    "{kind:?} head {head}: {report}"
                );
                assert_eq!(report.corrections[0].head, head);
                assert_eq!(report.unrecovered, 0);
                // The healed row joined the cache with the pair derived from
                // its verified bits: same cache as never having been struck…
                assert!(cache_bits(&cache) == clean_bits, "{kind:?} head {head}");
                // …and verify-on-move finds nothing to repair.
                let mut park_report = AbftReport::default();
                cache.verify(&attn.config.abft, &mut park_report);
                assert_eq!(cache.len(), 8);
                assert_eq!(
                    park_report.detections, 0,
                    "{kind:?} head {head}: {park_report}"
                );
            }
        }
    }

    #[test]
    fn warm_decode_steps_do_not_touch_the_allocator() {
        // A session replayed over a warm arena (the first one's KV blocks
        // and scratch are back in it) must not miss it once. 144 rows at 4
        // heads hold 72 K + V blocks: every one of them must be retained.
        let (x, attn) = setup(144, 32, 4);
        drop(grow_cache(&attn, &x, KV_BLOCK_ROWS, usize::MAX, None));
        let before = workspace::thread_alloc_events();
        drop(grow_cache(&attn, &x, KV_BLOCK_ROWS, usize::MAX, None));
        assert_eq!(
            workspace::thread_alloc_events() - before,
            0,
            "warm decode steps allocated arena buffers"
        );
    }

    #[test]
    fn unprotected_decode_lets_faults_poison_the_cache() {
        let (x, attn) = setup(6, 16, 2);
        let off = ProtectedAttention::new(attn.weights.clone(), ProtectionConfig::off());
        let mut cache = AttnKvCache::for_attention(&off);
        assert!(!cache.checksummed());
        let mut report = AbftReport::default();
        let mut poisoned = false;
        for t in 0..x.rows() {
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                if site.op == AttnOp::K {
                    m.set(0, 3, f32::NAN);
                }
            };
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles::none(),
                hook: (t == 2).then_some(&mut hook as _),
                report: &mut report,
            };
            let out = off.decode_step(&x_row, &mut cache, &mut ctx);
            if t >= 2 {
                poisoned |= !out.all_finite();
            }
        }
        assert!(poisoned, "unprotected NaN in K must reach decode outputs");
        assert_eq!(report.correction_count(), 0);
    }

    #[test]
    fn decode_parity_holds_at_awkward_block_sizes() {
        // The paging granularity must never reach the result bits — nor,
        // past `KC` cached tokens, may a block that straddles the contract's
        // partial flush (3 and 5 do not divide 128).
        let long = attn_tensor::gemm::KC + 12;
        for (seq, sizes) in [(9, &[1usize, 3, 5, 64][..]), (long, &[3, 5][..])] {
            let (x, attn) = setup(seq, 32, 4);
            let (reference, _) = decode_all(&attn, &x, false, SectionToggles::all());
            for &block_rows in sizes {
                let (_, rows, report) = grow_cache(&attn, &x, block_rows, usize::MAX, None);
                assert!(rows == reference, "seq={seq} block_rows={block_rows}");
                assert!(report.is_quiet(), "block_rows={block_rows}: {report}");
            }
        }
    }

    #[test]
    fn fused_tail_sums_equal_the_per_row_dot_loop() {
        // The form `score_row` ran before the fused pass, kept here as the
        // reference: one `contract::dot` per query row, tail and block.
        fn per_row(cache: &AttnKvCache, head: usize, qrow: &[f32]) -> [f32; 2] {
            let kb = &cache.k[head];
            let (mut cs, mut wcs) = (0.0f32, 0.0f32);
            for b in 0..kb.num_blocks() {
                let p0 = contract::dot(qrow, kb.tail_row(b, 0));
                let p1 = contract::dot(qrow, kb.tail_row(b, 1));
                cs += p0;
                wcs += p1 + (b * cache.block_rows) as f32 * p0;
            }
            [cs, wcs]
        }
        let (x, attn) = setup(37, 32, 4);
        for block_rows in [1usize, 3, 16, 64] {
            let (cache, _, _) = grow_cache(&attn, &x, block_rows, usize::MAX, None);
            let q: Vec<&[f32]> = (0..3).map(|i| &x.row(i)[..cache.d]).collect();
            for head in 0..cache.heads {
                let fused = cache.tail_sums(head, [q[0], q[1], q[2]]);
                for (i, qrow) in q.iter().enumerate() {
                    let want = per_row(&cache, head, qrow).map(f32::to_bits);
                    assert_eq!(fused[i].map(f32::to_bits), want, "block_rows={block_rows}");
                }
            }
        }
    }

    #[test]
    fn park_unpark_roundtrip_is_bit_exact() {
        // Fault-free verify-on-move must be invisible: parking mid-decode
        // and unparking yields the same bits as never having parked.
        let (x, attn) = setup(10, 32, 4);
        let (reference, _) = decode_all(&attn, &x, false, SectionToggles::all());
        let cfg = attn.config.abft;

        let mut cache = AttnKvCache::with_block_rows(32, 4, true, 3);
        let mut ref_cache = AttnKvCache::with_block_rows(32, 4, true, 3);
        let mut report = AbftReport::default();
        for t in 0..x.rows() {
            if t == 6 {
                // Park and immediately unpark between steps: one sweep each.
                cache.verify(&cfg, &mut report);
                cache.verify(&cfg, &mut report);
                assert_eq!(cache.len(), 6);
            }
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles::all(),
                hook: None,
                report: &mut report,
            };
            let out = attn.decode_step(&x_row, &mut cache, &mut ctx);
            assert_eq!(out, reference[t], "t={t}: park/unpark broke bit parity");

            let mut rctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles::all(),
                hook: None,
                report: &mut AbftReport::default(),
            };
            let _ = attn.decode_step(&x_row, &mut ref_cache, &mut rctx);
        }
        assert_eq!(report.detections, 0, "fault-free move must be quiet");
        // The round-tripped cache state itself — data, every K block tail,
        // every V pair — matches the untouched one.
        assert!(cache_bits(&cache) == cache_bits(&ref_cache));
    }

    /// The cache appended afresh from its current data: K rows in order
    /// (every block tail re-accumulated) and V rows through `append_v`
    /// (every pair re-derived by the encoder).
    fn reappended(cache: &AttnKvCache) -> AttnKvCache {
        let (heads, d) = (cache.heads, cache.d);
        let mut out = AttnKvCache::with_block_rows(heads * d, heads, true, cache.block_rows);
        for r in 0..cache.len() {
            let k_row: Vec<f32> = (0..heads)
                .flat_map(|h| cache.k[h].row(r).to_vec())
                .collect();
            out.append_k(&k_row);
            for h in 0..heads {
                out.append_v(h, &cache.v[h].row(r)[..d]);
            }
        }
        out
    }

    #[test]
    fn at_rest_flip_in_parked_kv_is_detected_and_corrected() {
        // Head width 8, and 80: past one `NC` = 64 block of the encoder's
        // row sums, where sequential sums would rebuild a V pair off its bits.
        // At 3 rows per block the 8-row cache ends in a partial 2-row block,
        // whose border sits past its valid rows; the V-pair strike lands there.
        for (hidden, block_rows) in [(32, 4), (320, 4), (32, 3), (320, 3)] {
            at_rest_flip_case(hidden, block_rows);
        }
    }

    fn at_rest_flip_case(hidden: usize, block_rows: usize) {
        let (x, attn) = setup(8, hidden, 4);
        let cfg = attn.config.abft;
        let (never_parked, _, _) = grow_cache(&attn, &x, block_rows, usize::MAX, None);
        let clean_bits = cache_bits(&never_parked);

        // (strike, the `(section, head, row, col)` cell its correction must
        // record, if any). A struck checksum cell is rebuilt from intact
        // data, so the repair lands on the never-parked bits; a struck data
        // cell is reconstructed from its checksums, so it lands on the
        // re-appended state instead.
        type Strike = fn(&mut AttnKvCache);
        type Cell = (SectionId, usize, usize, usize);
        let strikes: [(&str, Strike, Option<Cell>); 5] = [
            ("clean", |_| {}, None),
            (
                "K data",
                |c| c.k_row_mut(1, 5)[3] = f32::NAN,
                Some((SectionId::AttentionScore, 1, 5, 3)),
            ),
            (
                "V data",
                |c| c.v_row_mut(2, 4)[6] = f32::INFINITY,
                Some((SectionId::ContextLayer, 2, 4, 6)),
            ),
            ("K tail", |c| c.k[3].tail_row_mut(1, 1)[2] = f32::NAN, None),
            (
                "V pair",
                |c| {
                    let d = c.head_dim();
                    c.v_row_mut(0, 7)[d] = f32::NEG_INFINITY
                },
                None,
            ),
        ];
        for (name, strike, corrected) in strikes {
            let (mut cache, _, mut report) = grow_cache(&attn, &x, block_rows, usize::MAX, None);
            cache.verify(&cfg, &mut report); // park
            assert_eq!(report.detections, 0, "{name}: clean park must be quiet");
            strike(&mut cache); // at rest
            cache.verify(&cfg, &mut report); // unpark
            let struck = name != "clean";
            assert_eq!(report.detections, usize::from(struck), "{name}: {report}");
            assert_eq!(report.unrecovered, 0, "{name}: {report}");
            let cells: Vec<Cell> = report
                .corrections
                .iter()
                .map(|c| (c.section, c.head, c.row, c.col))
                .collect();
            assert_eq!(cells, Vec::from_iter(corrected), "{name}: {report}");
            assert_eq!(report.checksum_rebuilds, usize::from(struck) - cells.len());
            assert!(
                cache_bits(&cache) == cache_bits(&reappended(&cache)),
                "{name}: repaired blocks must carry append-order tails"
            );
            if corrected.is_none() {
                assert!(cache_bits(&cache) == clean_bits, "{name}");
            } else {
                assert!(cache.k[1].row(5).iter().all(|v| v.is_finite()), "{name}");
                assert!(cache.v[2].row(4).iter().all(|v| v.is_finite()), "{name}");
            }
            // A second sweep over the repaired cache finds nothing.
            let mut again = AbftReport::default();
            cache.verify(&cfg, &mut again);
            assert_eq!(again.detections, 0, "{name}: {again}");
        }
    }

    #[test]
    fn seeded_cache_continues_bit_identically() {
        // Prefill via the full forward, seed the cache from its K/V tape,
        // then decode the tail — the parity contract across the seam.
        let (x, attn) = setup(10, 32, 4);
        let (all_decoded, _) = decode_all(&attn, &x, false, SectionToggles::all());

        let prefill = 6usize;
        let prefix = x.submatrix(0, prefill, 0, x.cols());
        let mut r = AbftReport::default();
        let full = attn.forward(&prefix, ForwardOptions::default(), &mut r);
        let mut cache = AttnKvCache::for_attention(&attn);
        cache.seed(&full.cache.k, &full.cache.v);
        assert_eq!(cache.len(), prefill);

        let mut report = AbftReport::default();
        for t in prefill..x.rows() {
            let x_row = x.submatrix(t, t + 1, 0, x.cols());
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles::all(),
                hook: None,
                report: &mut report,
            };
            let out = attn.decode_step(&x_row, &mut cache, &mut ctx);
            assert_eq!(out, all_decoded[t], "t={t}: seam broke bit parity");
        }
        assert!(report.is_quiet());
    }
}
