//! Operand panel packing for the register-tiled GEMM, with optional fused
//! checksum accumulation.
//!
//! The packed kernel (see [`crate::gemm`]) never reads operands directly
//! from their row-major storage inside the microkernel. Instead each
//! `MC × KC` block of `op(A)` and `KC × NC` block of `op(B)` is first
//! copied into a contiguous *panel* layout:
//!
//! * A-panels: micro-panels of [`MR`] rows, stored k-major —
//!   `ap[panel][kk * MR + r]` — so the microkernel reads one contiguous
//!   `MR`-wide column slice per `k` step.
//! * B-panels: micro-panels of [`NR`] columns, stored k-major —
//!   `bp[panel][kk * NR + j]`.
//!
//! Ragged edges are zero-padded to full micro-panels, which keeps the
//! microkernel branch-free; padded lanes are simply never written back.
//!
//! **Fused encoding.** Packing already streams every element of the
//! operand through registers, so the ABFT checksum projections (`v1 = 1`,
//! `v2 = [1, 2, …]`) accumulate alongside at near-zero marginal cost — the
//! CPU analogue of the paper's §4.6 encoder that produces both sums from a
//! single staged read. The sweeps themselves, and the accumulation order
//! they must keep, live in [`crate::contract`].

use crate::gemm::{MR, NR};

/// Read-only operand described by its storage, leading dimension, and
/// whether the *logical* operand is the transpose of storage.
#[derive(Clone, Copy)]
pub(crate) struct Src<'a> {
    pub data: &'a [f32],
    /// Leading dimension of the row-major storage.
    pub ld: usize,
    /// When true, logical element `(r, c)` reads `data[c * ld + r]`.
    pub trans: bool,
}

impl<'a> SrcRead for Src<'a> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        if self.trans {
            self.data[c * self.ld + r]
        } else {
            self.data[r * self.ld + c]
        }
    }

    #[inline(always)]
    fn row_slice(&self, r: usize, c0: usize, len: usize) -> Option<&[f32]> {
        if self.trans {
            None
        } else {
            Some(&self.data[r * self.ld + c0..r * self.ld + c0 + len])
        }
    }
}

/// Element access for GEMM operands. The packing loops read *logical*
/// elements through this trait, so any storage layout — contiguous
/// row-major ([`Src`]) or paged rows split across fixed-size blocks
/// ([`crate::kv::PagedSrc`]) — produces bit-identical packed panels, and
/// therefore bit-identical products: the accumulation-order contract is a
/// property of the logical element order, which this trait preserves.
pub(crate) trait SrcRead: Copy + Sync {
    /// Logical element `(r, c)` of `op(X)`.
    fn at(&self, r: usize, c: usize) -> f32;

    /// Contiguous storage of logical row `r`, columns `c0..c0 + len`, when
    /// the layout can serve one (non-transposed sources with row-resident
    /// storage). `None` forces the element-wise path.
    fn row_slice(&self, r: usize, c0: usize, len: usize) -> Option<&[f32]>;
}

/// The column-augmented operand `[A; v1ᵀA; v2ᵀA]` as one packing source:
/// rows `0..m` read `a`, rows `m` and `m + 1` read the two checksum
/// projections `cs = [Σ(k) | Σw(k)]`. Lets a fused product whose checksum
/// rows fit `A`'s padding lanes go through the packed driver once.
#[derive(Clone, Copy)]
pub(crate) struct ColsAugmented<'a, A> {
    pub a: A,
    pub m: usize,
    pub k: usize,
    pub cs: &'a [f32],
}

impl<A: SrcRead> SrcRead for ColsAugmented<'_, A> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        if r < self.m {
            self.a.at(r, c)
        } else {
            self.cs[(r - self.m) * self.k + c]
        }
    }

    #[inline(always)]
    fn row_slice(&self, r: usize, c0: usize, len: usize) -> Option<&[f32]> {
        if r < self.m {
            self.a.row_slice(r, c0, len)
        } else {
            let off = (r - self.m) * self.k + c0;
            Some(&self.cs[off..off + len])
        }
    }
}

/// Pack `op(A)[i0..i0+mc, p0..p0+kc]` into MR-row micro-panels.
///
/// `ap[..panels * kc * MR]` is fully overwritten (padding rows written as
/// zero). Pure copy — the fused checksum accumulation runs as its own
/// cache-hot sweep (`contract::accum_col_cs`) so this loop stays vectorizable.
pub(crate) fn pack_a_block<A: SrcRead>(
    a: A,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    ap: &mut [f32],
) {
    let panels = mc.div_ceil(MR);
    debug_assert!(ap.len() >= panels * kc * MR);
    for panel in 0..panels {
        let r0 = panel * MR;
        let valid = MR.min(mc - r0);
        let dst = &mut ap[panel * kc * MR..(panel + 1) * kc * MR];
        for kk in 0..kc {
            let col = &mut dst[kk * MR..kk * MR + MR];
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < valid {
                    a.at(i0 + r0 + r, p0 + kk)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pack the whole of an `op(A)` of at most [`MR`] rows (`m × k`) as its one
/// micro-panel, `ap[kk * MR + r]`: KC block `p0` of it is the sub-slice
/// `[p0 * MR, (p0 + kc) * MR)`, exactly what [`pack_a_block`] writes for
/// that block. `ap` must arrive zeroed (an arena checkout is) — the padding
/// lanes are not written. Row-wise: a row-resident source is read as slices.
pub(crate) fn pack_a_panel<A: SrcRead>(a: A, m: usize, k: usize, ap: &mut [f32]) {
    debug_assert!(m <= MR && ap.len() >= k * MR);
    for r in 0..m {
        let lane = ap.chunks_exact_mut(MR).map(|col| &mut col[r]);
        match a.row_slice(r, 0, k) {
            Some(row) => lane.zip(row).for_each(|(slot, &v)| *slot = v),
            None => lane.enumerate().for_each(|(kk, slot)| *slot = a.at(r, kk)),
        }
    }
}

/// Pack `op(B)[p0..p0+kc, j0..j0+nc]` into NR-column micro-panels
/// (pure copy).
pub(crate) fn pack_b_block<B: SrcRead>(
    b: B,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    bp: &mut [f32],
) {
    let panels = nc.div_ceil(NR);
    debug_assert!(bp.len() >= panels * kc * NR);
    for panel in 0..panels {
        let c0 = panel * NR;
        let valid = NR.min(nc - c0);
        let dst = &mut bp[panel * kc * NR..(panel + 1) * kc * NR];
        for kk in 0..kc {
            let row = &mut dst[kk * NR..kk * NR + NR];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = if j < valid {
                    b.at(p0 + kk, j0 + c0 + j)
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{accum_col_cs, weight, ColCsAccum};

    fn seq_matrix(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|i| i as f32).collect()
    }

    #[test]
    fn pack_a_layout_and_padding() {
        // 3×4 block packed with MR-row panels: panel 0 holds rows 0..MR.
        let data = seq_matrix(3, 4);
        let a = Src {
            data: &data,
            ld: 4,
            trans: false,
        };
        let panels = 3usize.div_ceil(MR);
        let mut ap = vec![f32::NAN; panels * 4 * MR];
        pack_a_block(a, 0, 3, 0, 4, &mut ap);
        // Element (r, kk) lives at panel(r/MR): kk*MR + r%MR.
        for r in 0..3 {
            for kk in 0..4 {
                let panel = r / MR;
                let got = ap[panel * 4 * MR + kk * MR + r % MR];
                assert_eq!(got, data[r * 4 + kk], "({r},{kk})");
            }
        }
        // Padding rows are exactly zero.
        if 3 % MR != 0 {
            for kk in 0..4 {
                for r in 3..MR {
                    assert_eq!(ap[kk * MR + r], 0.0);
                }
            }
        }
    }

    #[test]
    fn pack_b_transposed_reads_storage_transpose() {
        // op(B) = Bᵀ where B is 5×3 row-major: logical (kk, j) = B[j, kk].
        let data = seq_matrix(5, 3);
        let b = Src {
            data: &data,
            ld: 3,
            trans: true,
        };
        let panels = 5usize.div_ceil(NR);
        let mut bp = vec![f32::NAN; panels * 3 * NR];
        pack_b_block(b, 0, 3, 0, 5, &mut bp);
        for kk in 0..3 {
            for j in 0..5 {
                let panel = j / NR;
                let got = bp[panel * 3 * NR + kk * NR + j % NR];
                assert_eq!(got, data[j * 3 + kk], "({kk},{j})");
            }
        }
    }

    #[test]
    fn fused_col_checksums_match_direct_sums() {
        let data = seq_matrix(7, 5);
        let a = Src {
            data: &data,
            ld: 5,
            trans: false,
        };
        let mut sum = vec![0.0f32; 5];
        let mut wsum = vec![0.0f32; 5];
        let mut acc = ColCsAccum {
            sum: &mut sum,
            wsum: &mut wsum,
        };
        accum_col_cs(a, 0, 7, 0, 5, &mut acc);
        for c in 0..5 {
            let expect: f32 = (0..7).map(|r| data[r * 5 + c]).sum();
            let wexpect: f32 = (0..7).map(|r| weight(r) * data[r * 5 + c]).sum();
            assert_eq!(sum[c], expect, "col {c}");
            assert_eq!(wsum[c], wexpect, "col {c} weighted");
        }
    }
}
