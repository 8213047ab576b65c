//! Packed, cache-blocked, register-tiled GEMM kernels.
//!
//! These kernels stand in for cuBLAS in the paper's setup. Three layout
//! variants cover everything attention and backprop need:
//!
//! * [`matmul`]      — `C = A · B`      (e.g. `X · W_Q`)
//! * [`matmul_nt`]   — `C = A · Bᵀ`     (e.g. `Q · Kᵀ`, `dY · Wᵀ`)
//! * [`matmul_tn`]   — `C = Aᵀ · B`     (e.g. `Xᵀ · dY` for weight grads)
//!
//! All three run through **one** shared kernel: operands are packed into
//! contiguous micro-panels ([`crate::pack`]) block by block
//! ([`MC`]`×`[`KC`] for `op(A)`, [`KC`]`×`[`NC`] for `op(B)`), and an
//! [`MR`]`×`[`NR`] register-tile microkernel accumulates each output tile.
//! The packing step absorbs the transposes, which is what gives the NT
//! path the k-blocking the old row-streaming implementation lacked.
//!
//! # Fused checksum encoding
//!
//! [`gemm_encode_cols_into`] (and its paged twin) produces an
//! ABFT-augmented product in one call: the left operand's column-checksum
//! projections accumulate *inside the packing loop* (the packing already
//! streams every element through registers), and the checksum border of
//! the product is then a 2-row product under the same per-element
//! contract — bit-identical to encoding the operand first and
//! multiplying the augmented matrix, without the standalone encode sweep
//! or the augmented-copy allocation. This is the paper's §4.6 fusion:
//! "pack the checksum with the operand matrix such that the checksum can
//! be updated together with the original operation".
//!
//! **The column-side border rides the padding lanes when it can.** A
//! ragged last micro-panel of packed `A` carries `MR − (m mod MR)` all-zero
//! rows that the microkernel multiplies anyway. When the two checksum rows
//! fit there — `(m+2).div_ceil(MR) == m.div_ceil(MR)`, i.e. m = 1, 2, 5,
//! 6, …: every decode/serve GEMM — the column-side entries accumulate
//! `(v1ᵀA, v2ᵀA)` first ([`crate::contract`]'s column sums) and push
//! `[A; v1ᵀA; v2ᵀA]` through the packed driver **once**, as one source:
//! the border costs no second pass over `B` and no extra microkernel call
//! (FT-Transformer's "the checksum lives inside the kernel's own tile").
//! Measured at m = 1: 1.04× a plain `matmul_into` at 1×128×128, 1.00× at
//! 1×128×512, against 1.74× / 1.69× for the streaming border. Every other
//! `m` keeps the streaming border — projections accumulated in the packing
//! pass, then one lean sweep of `B` — because there the riding rows would
//! open a micro-panel of their own: at m = 64 (training) that is a whole
//! extra [`MC`] row block re-packing `B`, 1.235× plain against 1.118× for
//! streaming at 64×128×128; at m = 32 (prefill) the two tie (1.19×). The
//! choice is a private predicate on `m`; both mechanisms produce the same
//! bits (they are each "two extra rows of an augmented `A`"), which
//! `tests/gemm_tiled_props.rs` and this module's tests pin.
//!
//! **One micro-panel is packed once.** When `op(A)` as the driver sees it
//! has at most [`MR`] rows — a decode row, alone or with its two riding
//! rows — it is packed once per call (`pack_a_panel`: row slices, no
//! per-element source dispatch), not once per [`NC`] column tile (8 times at
//! 1×128×512), for plain and riding products alike. Fused − plain per call,
//! interleaved medians of 801 rounds, before → after: 1×128×128 0.5–1.4 →
//! ≈ 0 µs, 1×128×512 2.2–3.8 → ≤ 0, 1×512×128 3.2 → 0.2–0.6; the plain
//! product itself 54–59 → 49–57 µs at 1×512×128. No m = 64 product
//! satisfies the predicate (5.3–5.9 µs before and after).
//!
//! **A single-query row's pair columns take their own pass**
//! (`pair_takes_its_own_pass`): over a V cache whose rows end in their
//! `(Σ, Σw)` pair the paged fused entry sends only the data columns through
//! the driver and takes the two pair columns of all three augmented rows as
//! six contract elements in one walk over the block slices
//! ([`contract::dots_pair`]) — `ap·V` 14.5 → 9–11 µs of a decode step.
//! Measured and rejected there: a per-row two-column dot over
//! `PagedKv::row(kk)` (three walks, an `r / block_rows` per element) — no
//! gain over the 34-wide product.
//!
//! Measured and rejected since (train shape, external harness, protected −
//! twin ms per step): riding the column border at m = 64 *without* the
//! extra row block (the two rows joining the last tile, see
//! `Grid::blocks`) — FFN entries 0.65 → 1.72, Q/K 0.31 → 0.47, so the
//! predicate stays as written; the row border as two more columns of one
//! packed source (`[B | B·v1 | B·v2]`) — V's entry 0.75 → 0.95 at head
//! width 32, where the pair opens an `NR` panel that is three-quarters
//! padding (V's entry has since left the section: the KV cache carries its
//! row pairs); and an AVX2 instantiation of
//! the two across-output sweeps behind a run-time dispatch — for the
//! in-packing column sweep a dispatch per 64-float row costs more than
//! the wider lanes save (FFN entries 0.67 → 0.90), for the streaming
//! border it buys 0.15 of a 104 ms step, which is the microkernel tier's
//! to collect once the dispatch sits in the driver (ROADMAP item 3).
//!
//! # The accumulation-order contract
//!
//! Exact post-correction replay and every checksum border depend on
//! reproducing output bits, so the order in which an element, a row
//! checksum and a column checksum are accumulated is a documented contract.
//! It is stated once, in [`crate::contract`]; this module holds only the
//! two performance-shaped restatements of it (the register microkernel
//! under `compute_tile`'s [`KC`] loop, and `encode_border_cols`' row-major
//! sweep), each pinned to the contract function by a bit-equality test.
//!
//! IEEE-754 special values (INF/NaN) propagate exactly as they would
//! through cuBLAS — zero elements are never skipped (a sparsity shortcut
//! would mask `0 × NaN = NaN`), and padding lanes multiply real data only
//! by themselves, never replacing it — which the fault-propagation study
//! relies on.
//!
//! Packing panels and checksum staging come from the thread-local
//! [`crate::workspace`] arena, so a steady-state caller performs no heap
//! allocation inside these kernels.
//!
//! Tile tasks share the output and the checksum staging through two raw
//! cursors (`DstPtr`, `StagePtr`), the crate's only `unsafe` besides
//! [`crate::lanes`]' detection token. Every `unsafe` block and impl states
//! its bound in a `// SAFETY:` comment, which the crate's
//! `clippy::undocumented_unsafe_blocks` level requires, and each raw
//! slice's bound is also a `debug_assert!` beside it.

use crate::contract::{self, accum_col_cs, ColCsAccum};
use crate::kv::PagedKv;
use crate::matrix::Matrix;
use crate::pack::{pack_a_block, pack_a_panel, pack_b_block, ColsAugmented, Src, SrcRead};
use crate::view::{MatMut, MatRef};
use crate::workspace;
use rayon::prelude::*;

/// Rows of one register tile (micro-panel height of packed `op(A)`).
pub const MR: usize = 4;
/// Columns of one register tile (micro-panel width of packed `op(B)`).
pub const NR: usize = 8;
/// Row-block edge: rows of `op(A)` packed (and parallelised) per tile.
pub const MC: usize = 64;
/// Column-block edge: columns of `op(B)` packed per tile.
pub const NC: usize = 64;
/// Cache-block edge for the k dimension — also the partial-sum block size
/// of the accumulation-order contract ([`crate::contract`]).
pub const KC: usize = 128;

/// Minimum `m*n*k` before the kernels split work across threads.
///
/// Deliberately high: on the few-core hosts this reproduction targets,
/// splitting sub-millisecond GEMMs across rayon workers produces bimodal
/// timings (thread park/unpark latency rivals the arithmetic) that swamp
/// the ABFT overheads being measured. Parallelism is instead applied at
/// the batch/campaign level, where tasks are tens of milliseconds.
pub const PAR_FLOP_THRESHOLD: usize = 256 * 256 * 256;

/// Shared threshold decision for all kernels. The product is formed in
/// `u128` so pathological shapes (huge `k` times huge `n`) cannot wrap
/// `usize` and silently serialise — or worse, parallelise a tiny GEMM.
#[inline]
pub fn exceeds_par_threshold(m: usize, n: usize, k: usize) -> bool {
    (m as u128)
        .saturating_mul(n as u128)
        .saturating_mul(k as u128)
        >= PAR_FLOP_THRESHOLD as u128
}

/// `C = A · B` into a fresh matrix.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a.view(), b.view(), c.view_mut());
    c
}

/// `C = A · Bᵀ` into a fresh matrix.
///
/// # Panics
/// Panics if `A.cols() != B.cols()`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_into(a.view(), b.view(), c.view_mut());
    c
}

/// `C = Aᵀ · B` into a fresh matrix.
///
/// # Panics
/// Panics if `A.rows() != B.rows()`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_into(a.view(), b.view(), c.view_mut());
    c
}

/// `C = A · B` writing into `c` (overwritten, not accumulated).
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_into(a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul: inner dims {} vs {}", k, b.rows());
    assert_eq!(m, c.rows(), "matmul: output rows");
    assert_eq!(n, c.cols(), "matmul: output cols");
    let (av, bv) = (src_n(a), src_n(b));
    gemm_driver(av, bv, m, n, k, c.data(), n, None);
}

/// `C = A · Bᵀ` writing into `c`.
///
/// The transpose is absorbed by the packing step, so the NT path gets the
/// same KC-blocking (and register tiling) as the NN path — large inner
/// dimensions no longer stream whole rows through an unblocked dot.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_nt_into(a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.rows();
    assert_eq!(k, b.cols(), "matmul_nt: inner dims {} vs {}", k, b.cols());
    assert_eq!(m, c.rows(), "matmul_nt: output rows");
    assert_eq!(n, c.cols(), "matmul_nt: output cols");
    let (av, bv) = (src_n(a), src_t(b));
    gemm_driver(av, bv, m, n, k, c.data(), n, None);
}

/// `C = Aᵀ · B` writing into `c`.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_tn_into(a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    let (r, m) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(r, b.rows(), "matmul_tn: inner dims {} vs {}", r, b.rows());
    assert_eq!(m, c.rows(), "matmul_tn: output rows");
    assert_eq!(n, c.cols(), "matmul_tn: output cols");
    let (av, bv) = (src_t(a), src_n(b));
    gemm_driver(av, bv, m, n, r, c.data(), n, None);
}

/// Fused encode-and-multiply, column side: writes the augmented product
/// `[A; v1ᵀA; v2ᵀA] · B` into the `(m+2) × n` output `c`.
///
/// Rows `0..m` are the plain product `A·B` (bit-identical to
/// [`matmul_into`]); rows `m..m+2` are the riding column checksums
/// `(v1ᵀA)·B` / `(v2ᵀA)·B`. The checksum projections of `A` are
/// bit-identical to `attnchecker::checksum::col_checksums(A)` by the
/// shared block contract — no standalone encode sweep, no augmented
/// operand copy — and the border rides the kernel's padding lanes
/// whenever it fits them (see the module docs).
///
/// # Panics
/// Panics unless `c.rows() == a.rows() + 2`, `c.cols() == b.cols()`, and
/// `a.cols() == b.rows()`.
pub fn gemm_encode_cols_into(a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    let n = b.cols();
    assert_eq!(a.cols(), b.rows(), "gemm_encode_cols: inner dims");
    assert_eq!(a.rows() + 2, c.rows(), "gemm_encode_cols: output rows");
    assert_eq!(n, c.cols(), "gemm_encode_cols: output cols");
    encode_cols_product(a, src_n(b), n, c.data());
}

/// `C = A · B[:, 0..c.cols()]` where `B` is the paged data matrix of a KV
/// cache: the whole product, or its leading columns when `c` is narrower
/// (cache rows ending in a checksum pair the caller does not want).
///
/// Bit-identical to [`matmul_into`] over a contiguous copy of those
/// columns: the packing loops read logical elements through the
/// crate-internal `SrcRead` abstraction, so block
/// boundaries never alter the accumulation order.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`, `c.rows() != a.rows()`, or
/// `c.cols() > b.cols()`.
pub fn matmul_paged_into(a: MatRef<'_>, b: &PagedKv, mut c: MatMut<'_>) {
    let (m, k) = (a.rows(), a.cols());
    let n = c.cols();
    assert_eq!(
        k,
        b.rows(),
        "matmul_paged: inner dims {} vs {}",
        k,
        b.rows()
    );
    assert_eq!(m, c.rows(), "matmul_paged: output rows");
    assert!(n <= b.cols(), "matmul_paged: output too wide");
    gemm_driver(src_n(a), b.src(false), m, n, k, c.data(), n, None);
}

/// `C[0..m, 0..rows(B)] = A · Bᵀ` where `B` is the paged data matrix of a
/// KV cache (one score per cached row).
///
/// Unlike the dense entries, `c` may be **wider** than the product:
/// `c.cols() >= b.rows()` is required, the product lands in columns
/// `0..b.rows()` at row stride `c.cols()`, and the extra columns are left
/// untouched — a caller appending checksum columns fills them itself.
/// The written region is bit-identical to [`matmul_nt_into`] over a
/// contiguous copy of `B`.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`, `c.rows() != a.rows()`, or
/// `c.cols() < b.rows()`.
pub fn matmul_nt_paged_into(a: MatRef<'_>, b: &PagedKv, mut c: MatMut<'_>) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.rows();
    assert_eq!(k, b.cols(), "matmul_nt_paged: inner dims");
    assert_eq!(m, c.rows(), "matmul_nt_paged: output rows");
    assert!(c.cols() >= n, "matmul_nt_paged: output too narrow");
    let ldc = c.cols();
    gemm_driver(src_n(a), b.src(true), m, n, k, c.data(), ldc, None);
}

/// Fused encode-and-multiply over a paged operand: writes the augmented
/// product `[A; v1ᵀA; v2ᵀA] · B` into the `(m+2) × cols(B)` output, with
/// `B` the paged data matrix of a KV cache. Data rows are bit-identical
/// to [`matmul_paged_into`]; the checksum border follows the same block
/// contract as [`gemm_encode_cols_into`].
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn gemm_encode_cols_paged_into(a: MatRef<'_>, b: &PagedKv, mut c: MatMut<'_>) {
    let n = b.cols();
    assert_eq!(a.cols(), b.rows(), "gemm_encode_cols_paged: inner dims");
    assert_eq!(
        a.rows() + 2,
        c.rows(),
        "gemm_encode_cols_paged: output rows"
    );
    assert_eq!(n, c.cols(), "gemm_encode_cols_paged: output cols");
    if !pair_takes_its_own_pass(a.rows(), n) {
        return encode_cols_product(a, b.src(false), n, c.data());
    }
    // Data columns through the packed driver at the full row stride; the
    // pair columns of the three augmented rows in one pass over the blocks.
    let (k, cd) = (a.cols(), c.data());
    let cs = encode_cols_riding(a, b.src(false), n - 2, n, cd);
    let (cs0, cs1) = cs.split_at(k);
    let pairs = contract::dots_pair([a.row(0), cs0, cs1], b.col_pairs(n - 2));
    for (crow, p) in cd.chunks_exact_mut(n).zip(pairs) {
        crow[n - 2..].copy_from_slice(&p);
    }
}

/// Do the two checksum rows of `[A; v1ᵀA; v2ᵀA]` land in zero-padded lanes
/// the packed kernel multiplies anyway? True when the augmented operand
/// packs into as many [`MR`]-row micro-panels as `A` alone (m = 1, 2, 5,
/// 6, … — every decode/serve GEMM); [`MC`] is a multiple of [`MR`], so the
/// row-block grid is then unchanged too.
#[inline]
fn border_rides_padding(m: usize) -> bool {
    (m + 2).div_ceil(MR) == m.div_ceil(MR)
}

/// Do the last two columns of an `n`-wide single-row product open an [`NR`]
/// panel of their own? A checksummed V cache stores each row's `(Σ, Σw)`
/// pair after its `d` data columns: at `d = 32` a fifth panel, three-quarters
/// padding, on every head of every decode step (see the module docs).
#[inline]
fn pair_takes_its_own_pass(m: usize, n: usize) -> bool {
    m == 1 && n > 2 && n.div_ceil(NR) > (n - 2).div_ceil(NR)
}

/// The column-side fused product over either `B` layout: `cd` receives the
/// `(m+2) × n` augmented product `[A; v1ᵀA; v2ᵀA] · B`. Two mechanisms,
/// one set of bits — the checksum border is, either way, two extra rows of
/// an augmented `A` under the per-element KC-block contract — chosen by
/// [`border_rides_padding`] alone.
fn encode_cols_product<B: SrcRead>(a: MatRef<'_>, bv: B, n: usize, cd: &mut [f32]) {
    if border_rides_padding(a.rows()) {
        encode_cols_riding(a, bv, n, n, cd);
    } else {
        encode_cols_streaming(a, bv, n, cd);
    }
}

/// Lane-riding border: the projections accumulate first, then
/// `[A; v1ᵀA; v2ᵀA]` goes through the packed driver **once**, as one
/// source — when the two rows fit `A`'s padding lanes the border costs no
/// pass over `B` and no microkernel call the plain product would not have
/// made. (Correct for any `m`; only free under the predicate.) Writes the
/// first `n` columns of the product at row stride `ldc` and hands back the
/// projections `[Σ(k) | Σw(k)]`.
fn encode_cols_riding<B: SrcRead>(
    a: MatRef<'_>,
    bv: B,
    n: usize,
    ldc: usize,
    cd: &mut [f32],
) -> workspace::WsBuf {
    let (m, k) = (a.rows(), a.cols());
    let av = src_n(a);
    let mut cs = workspace::take(2 * k);
    contract::col_sums_src(av, m, k, &mut cs);
    let aug = ColsAugmented {
        a: av,
        m,
        k,
        cs: &cs,
    };
    gemm_driver(aug, bv, m + 2, n, k, cd, ldc, None);
    cs
}

/// Streaming border: the projections accumulate inside the packing pass
/// and [`encode_border_cols`] streams `B` once more — kept wherever the
/// border would otherwise open a micro-panel of its own (m = 64 training:
/// the extra row block measured 1.235× plain against 1.118× for this at
/// 64×128×128; m = 32 prefill: a tie).
fn encode_cols_streaming<B: SrcRead>(a: MatRef<'_>, bv: B, n: usize, cd: &mut [f32]) {
    let (m, k) = (a.rows(), a.cols());
    let mut cs = workspace::take(2 * k);
    gemm_driver(src_n(a), bv, m, n, k, &mut cd[..m * n], n, Some(&mut cs));
    // Checksum border: CS_A (2 × k) · B as a lean streaming product. It
    // follows the same per-element KC-block contract as the packed kernel
    // — so the border is bit-identical to two extra rows of an augmented
    // A — but streams B once, without re-packing.
    let (cs_row, rest) = cd[m * n..].split_at_mut(n);
    encode_border_cols(&cs, bv, k, [cs_row, &mut rest[..n]]);
}

/// Streaming `[v1ᵀA; v2ᵀA] · B` border product into the two `n`-long
/// checksum rows `out`. Each output column is one element under the
/// product contract (a fresh partial per [`KC`] block, `kk` ascending,
/// partials combined in block order on zero); the sweep is row-major over
/// `B` — it streams `B` once, every column keeps its own add order, and
/// the zipped lanes vectorise.
fn encode_border_cols<B: SrcRead>(cs: &[f32], b: B, k: usize, out: [&mut [f32]; 2]) {
    let [out0, out1] = out;
    let n = out0.len();
    let mut part = workspace::take(2 * n);
    let (part0, part1) = part.split_at_mut(n);
    out0.fill(0.0);
    out1.fill(0.0);
    for p0 in (0..k).step_by(KC) {
        part0.fill(0.0);
        part1.fill(0.0);
        for kk in p0..(p0 + KC).min(k) {
            let (av, awv) = (cs[kk], cs[k + kk]);
            let acc = part0.iter_mut().zip(part1.iter_mut());
            if let Some(brow) = b.row_slice(kk, 0, n) {
                for ((p0, p1), &bv) in acc.zip(brow) {
                    *p0 += av * bv;
                    *p1 += awv * bv;
                }
            } else {
                for (j, (p0, p1)) in acc.enumerate() {
                    let bv = b.at(kk, j);
                    *p0 += av * bv;
                    *p1 += awv * bv;
                }
            }
        }
        for (o, &p) in out0.iter_mut().zip(part0.iter()) {
            *o += p;
        }
        for (o, &p) in out1.iter_mut().zip(part1.iter()) {
            *o += p;
        }
    }
}

#[inline]
fn src_n(v: MatRef<'_>) -> Src<'_> {
    Src {
        data: v.data(),
        ld: v.cols().max(1),
        trans: false,
    }
}

#[inline]
fn src_t(v: MatRef<'_>) -> Src<'_> {
    Src {
        data: v.data(),
        ld: v.cols().max(1),
        trans: true,
    }
}

/// Raw output cursor shared across tile tasks. Tiles write disjoint
/// `(row, col)` regions, so concurrent use is sound.
#[derive(Clone, Copy)]
struct DstPtr {
    ptr: *mut f32,
    ldc: usize,
}

// SAFETY: plain pointer+stride pair; every tile writes a disjoint region.
unsafe impl Send for DstPtr {}
// SAFETY: fields are only read; the pointed-to writes are disjoint per tile.
unsafe impl Sync for DstPtr {}

/// Raw staging cursor for per-block checksum partials (disjoint block
/// slices per tile task). `len` is the checked-out capacity in floats,
/// asserted against before any block slice is reconstructed.
#[derive(Clone, Copy)]
struct StagePtr {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: plain pointer+len pair; every block owns a disjoint slice.
unsafe impl Send for StagePtr {}
// SAFETY: fields are only read; block slices never overlap across tiles.
unsafe impl Sync for StagePtr {}

/// The tile grid of one driver call: `m × n` cut at [`MC`] / [`NC`].
#[derive(Clone, Copy)]
struct Grid {
    m: usize,
    n: usize,
    n_ib: usize,
    n_jb: usize,
}

impl Grid {
    /// Blocks along one dimension. With `join`, a trailing remainder of at
    /// most two (a checksum border's worth) rides in the last full block
    /// instead of opening a tile that would re-pack the other operand for
    /// it. Which tile an element lands in never enters its add order.
    fn blocks(len: usize, edge: usize, join: bool) -> usize {
        let n = len.div_ceil(edge);
        n - usize::from(join && n > 1 && (len - 1) % edge < 2)
    }

    /// `(start, len)` of block `blk` of `n_blk` along a `len`-long
    /// dimension cut at `edge`: the last block takes what remains.
    fn span(blk: usize, n_blk: usize, len: usize, edge: usize) -> (usize, usize) {
        let start = blk * edge;
        (start, if blk + 1 == n_blk { len - start } else { edge })
    }
}

/// The shared kernel: `C[0..m, 0..n] = op(A) · op(B)` written at row
/// stride `ldc` into `c` (which must hold `(m-1)·ldc + n` elements). With
/// `col_cs`, the column checksums of `op(A)` (`[Σ | Σw]`, length `2·k`)
/// accumulate in the packing pass.
///
/// Work is split over a deterministic 2D grid of `MC × NC` output tiles;
/// each tile packs its own operand panels and owns a disjoint output
/// region, so results are bit-identical at any worker count. A plain
/// product lets a ≤ 2 remainder join the last tile ([`Grid::blocks`]); the
/// fused one keeps the strict grid, because its staging is per [`MC`]
/// block by contract.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
fn gemm_driver<A: SrcRead, B: SrcRead>(
    a: A,
    b: B,
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
    ldc: usize,
    col_cs: Option<&mut [f32]>,
) {
    debug_assert!(m == 0 || c.len() >= (m - 1) * ldc + n);
    // The output is accumulated block-partial by block-partial on top of
    // zero (the documented contract), so clear the owned region first.
    for r in 0..m {
        c[r * ldc..r * ldc + n].fill(0.0);
    }
    if let Some(o) = &col_cs {
        debug_assert_eq!(o.len(), 2 * k);
    }
    if m == 0 || n == 0 {
        if let Some(o) = col_cs {
            o.fill(0.0);
        }
        return;
    }
    let plain = col_cs.is_none();
    let grid = Grid {
        m,
        n,
        n_ib: Grid::blocks(m, MC, plain),
        n_jb: Grid::blocks(n, NC, plain),
    };
    // Per-block checksum staging: one `[Σ(k) | Σw(k)]` pair per row-block,
    // reduced in block order afterwards so the combination order never
    // depends on scheduling.
    let stage_blocks = if plain { 0 } else { grid.n_ib };
    // No staging checkout at all for plain products — the common case
    // stays off the arena entirely.
    let mut stage = (stage_blocks > 0).then(|| workspace::take(stage_blocks * 2 * k));
    let dst = DstPtr {
        ptr: c.as_mut_ptr(),
        ldc,
    };
    let stage_ptr = StagePtr {
        ptr: stage
            .as_mut()
            .map_or(std::ptr::NonNull::<f32>::dangling().as_ptr(), |s| {
                s.as_mut_slice().as_mut_ptr()
            }),
        len: stage_blocks * 2 * k,
    };

    // One micro-panel of `op(A)` — a decode row, alone or with its two
    // riding rows — is packed once for the call, not once per column tile.
    let a_once = (m <= MR && k > 0).then(|| {
        let mut ap = workspace::take(MR * k);
        pack_a_panel(a, m, k, &mut ap);
        ap
    });
    let a_once = a_once.as_deref();

    let tiles = grid.n_ib * grid.n_jb;
    let run_tile = |t: usize| {
        let (ib, jb) = (t / grid.n_jb, t % grid.n_jb);
        compute_tile(a, a_once, b, grid, k, dst, ib, jb, stage_ptr);
    };
    if exceeds_par_threshold(m, n, k) && tiles > 1 {
        (0..tiles).into_par_iter().for_each(run_tile);
    } else {
        for t in 0..tiles {
            run_tile(t);
        }
    }

    // Deterministic reduction of the per-block partials, block order
    // ascending — the other half of the encoder block contract.
    if let Some(o) = col_cs {
        let stage = stage
            .as_ref()
            .expect("staging exists whenever fuse is requested");
        o.fill(0.0);
        let (sum, wsum) = o.split_at_mut(k);
        for blk in 0..stage_blocks {
            let part = &stage[blk * 2 * k..(blk + 1) * 2 * k];
            for kk in 0..k {
                sum[kk] += part[kk];
                wsum[kk] += part[k + kk];
            }
        }
    }
}

/// Compute one `MC × NC` output tile: pack the operand panels per
/// [`KC`]-block and run the register microkernel over the tile's
/// micro-panel grid, accumulating straight into the output region.
/// `stage.len > 0` asks for the fused column checksums of `op(A)`; `a_once`
/// is the whole of `op(A)` already packed ([`pack_a_panel`]).
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
fn compute_tile<A: SrcRead, B: SrcRead>(
    a: A,
    a_once: Option<&[f32]>,
    b: B,
    grid: Grid,
    k: usize,
    dst: DstPtr,
    ib: usize,
    jb: usize,
    stage: StagePtr,
) {
    let (i0, mc) = Grid::span(ib, grid.n_ib, grid.m, MC);
    let (j0, nc) = Grid::span(jb, grid.n_jb, grid.n, NC);
    let a_panels = mc.div_ceil(MR);
    let b_panels = nc.div_ceil(NR);
    let kc_cap = KC.min(k.max(1));
    let mut ap = a_once
        .is_none()
        .then(|| workspace::take(a_panels * MR * kc_cap));
    let mut bp = workspace::take(b_panels * NR * kc_cap);

    // Fused checksum partials for this tile's block. Only the first tile
    // along the non-encoded dimension accumulates (the checksum of op(A)
    // must be fed once, not once per column tile) — regions are disjoint
    // per block index, so the raw slice reconstruction is sound.
    let mut col_cs = (stage.len > 0 && jb == 0).then(|| {
        debug_assert!((ib + 1) * 2 * k <= stage.len);
        // SAFETY: the staging checkout holds `stage.len` live floats and
        // row block `ib` owns the disjoint `[ib·2k, (ib+1)·2k)` slice —
        // only the `jb == 0` tile of each block row reconstructs it.
        let s = unsafe { std::slice::from_raw_parts_mut(stage.ptr.add(ib * 2 * k), 2 * k) };
        let (sum, wsum) = s.split_at_mut(k);
        ColCsAccum { sum, wsum }
    });

    let mut p0 = 0usize;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_b_block(b, p0, kc, j0, nc, &mut bp);
        let ap = match a_once {
            Some(packed) => &packed[p0 * MR..(p0 + kc) * MR],
            None => {
                let ap = ap.as_mut().expect("checked out when not pre-packed");
                pack_a_block(a, i0, mc, p0, kc, ap);
                &ap[..]
            }
        };
        if let Some(acc) = col_cs.as_mut() {
            accum_col_cs(a, i0, mc, p0, kc, acc);
        }
        for jp in 0..b_panels {
            let nr = NR.min(nc - jp * NR);
            let bpan = &bp[jp * kc * NR..(jp + 1) * kc * NR];
            for ipan in 0..a_panels {
                let mr = MR.min(mc - ipan * MR);
                let apan = &ap[ipan * kc * MR..(ipan + 1) * kc * MR];
                let mut acc = [[0.0f32; NR]; MR];
                microkernel(apan, bpan, &mut acc);
                // SAFETY: the 2D tile grid gives this task exclusive
                // ownership of the `(i0.., j0..)` output region, and
                // `mr`/`nr` are clipped to the tile edges above.
                unsafe {
                    writeback_add(dst, i0 + ipan * MR, j0 + jp * NR, mr, nr, &acc);
                }
            }
        }
        p0 += kc;
    }
}

/// The register microkernel: `acc[r][j] += Σ_k apan[k·MR+r] · bpan[k·NR+j]`
/// over one packed panel pair. One accumulator per element, `k` ascending —
/// the per-block partial of the accumulation-order contract. ILP comes
/// from the `MR × NR` independent accumulators, never from splitting a
/// single element's sum.
///
/// `inline(never)` is load-bearing: as a standalone function LLVM keeps
/// the whole `MR × NR` accumulator tile in vector registers; inlined into
/// the tile loop it spills the tile to the stack every `k` step, costing
/// ~6× throughput (measured 3.5 vs 20 GFLOP/s at 256³).
#[inline(never)]
fn microkernel(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ak, bk) in apan.chunks_exact(MR).zip(bpan.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(ak) {
            for (cv, &bv) in accr.iter_mut().zip(bk) {
                *cv += av * bv;
            }
        }
    }
}

/// Add the valid region of a register tile into the output.
///
/// # Safety
/// The caller must guarantee the addressed region lies within the output
/// buffer and is not written by any other concurrent tile (the 2D grid
/// gives every tile a disjoint region).
unsafe fn writeback_add(
    dst: DstPtr,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    acc: &[[f32; NR]; MR],
) {
    debug_assert!(mr <= MR && nr <= NR);
    for (r, accr) in acc.iter().enumerate().take(mr) {
        // SAFETY: per the `# Safety` contract the calling tile owns rows
        // `i0..i0 + mr` × columns `j0..j0 + nr` of the output, clipped to
        // its shape, so this `nr`-long row lies in bounds and no other
        // task writes it.
        let row =
            unsafe { std::slice::from_raw_parts_mut(dst.ptr.add((i0 + r) * dst.ldc + j0), nr) };
        for (cv, &v) in row.iter_mut().zip(&accr[..nr]) {
            *cv += v;
        }
    }
}

/// Triple-loop reference GEMM used to validate the blocked kernels.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for t in 0..a.cols() {
                s += a[(i, t)] * b[(t, j)];
            }
            c[(i, j)] = s;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    fn rand_mat(rng: &mut TensorRng, r: usize, c: usize) -> Matrix {
        rng.uniform_matrix(r, c, -1.0, 1.0)
    }

    #[test]
    fn matmul_matches_naive_small() {
        let mut rng = TensorRng::seed_from(7);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 3, 9)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            let c = matmul(&a, &b);
            let r = matmul_naive(&a, &b);
            assert!(c.approx_eq(&r, 1e-5, 1e-6), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_matches_naive_medium() {
        let mut rng = TensorRng::seed_from(11);
        let a = rand_mat(&mut rng, 96, 80);
        let b = rand_mat(&mut rng, 80, 72);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        assert!(c.approx_eq(&r, 1e-4, 1e-4));
    }

    #[test]
    fn matmul_matches_naive_parallel_path() {
        let mut rng = TensorRng::seed_from(12);
        // 288·256·256 exceeds PAR_FLOP_THRESHOLD so the rayon path runs.
        let a = rand_mat(&mut rng, 288, 256);
        let b = rand_mat(&mut rng, 256, 256);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        assert!(c.approx_eq(&r, 1e-3, 1e-3));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = TensorRng::seed_from(13);
        let a = rand_mat(&mut rng, 6, 10);
        let b = rand_mat(&mut rng, 8, 10);
        let c = matmul_nt(&a, &b);
        let r = matmul(&a, &b.transpose());
        assert!(c.approx_eq(&r, 1e-5, 1e-6));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = TensorRng::seed_from(17);
        let a = rand_mat(&mut rng, 10, 6);
        let b = rand_mat(&mut rng, 10, 8);
        let c = matmul_tn(&a, &b);
        let r = matmul(&a.transpose(), &b);
        assert!(c.approx_eq(&r, 1e-5, 1e-6));
    }

    #[test]
    fn matmul_tn_medium() {
        let mut rng = TensorRng::seed_from(19);
        let a = rand_mat(&mut rng, 90, 70);
        let b = rand_mat(&mut rng, 90, 66);
        let c = matmul_tn(&a, &b);
        let r = matmul(&a.transpose(), &b);
        assert!(c.approx_eq(&r, 1e-4, 1e-4));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = TensorRng::seed_from(23);
        let a = rand_mat(&mut rng, 9, 9);
        let i = Matrix::identity(9);
        assert!(matmul(&a, &i).approx_eq(&a, 1e-6, 1e-7));
        assert!(matmul(&i, &a).approx_eq(&a, 1e-6, 1e-7));
    }

    #[test]
    fn nan_propagates_through_gemm() {
        // The fault study depends on IEEE semantics: a NaN in A poisons the
        // whole corresponding output row.
        let mut a = Matrix::full(3, 3, 1.0);
        a[(1, 1)] = f32::NAN;
        let b = Matrix::full(3, 3, 1.0);
        let c = matmul(&a, &b);
        for j in 0..3 {
            assert!(c[(1, j)].is_nan(), "row 1 must be NaN-poisoned");
            assert!(c[(0, j)].is_finite());
            assert!(c[(2, j)].is_finite());
        }
    }

    #[test]
    fn inf_propagates_through_gemm() {
        let mut a = Matrix::full(3, 3, 1.0);
        a[(0, 2)] = f32::INFINITY;
        let b = Matrix::full(3, 3, 2.0);
        let c = matmul(&a, &b);
        for j in 0..3 {
            assert_eq!(c[(0, j)], f32::INFINITY);
        }
    }

    #[test]
    fn inf_times_negative_gives_neg_inf() {
        let mut a = Matrix::full(1, 2, 1.0);
        a[(0, 0)] = f32::INFINITY;
        let b = Matrix::from_vec(2, 1, vec![-1.0, 0.5]);
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], f32::NEG_INFINITY);
    }

    #[test]
    #[should_panic]
    fn inner_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    // ---------------- tiled-kernel and fused-encoding additions ----------

    #[test]
    fn elements_follow_the_kc_block_contract() {
        // k spans several KC blocks; every element the microkernel produces
        // must equal the contract function bit-for-bit.
        let mut rng = TensorRng::seed_from(29);
        let (m, k, n) = (5, 2 * KC + 37, 6);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, k, n);
        let c = matmul(&a, &b);
        let bt = b.transpose();
        for i in 0..m {
            for j in 0..n {
                let expect = contract::dot(a.row(i), bt.row(j));
                assert_eq!(
                    c[(i, j)].to_bits(),
                    expect.to_bits(),
                    "element ({i},{j}) broke the accumulation contract"
                );
            }
        }
    }

    #[test]
    fn nt_and_tn_share_the_contract() {
        let mut rng = TensorRng::seed_from(31);
        let k = KC + 51;
        let a = rand_mat(&mut rng, 4, k);
        let b = rand_mat(&mut rng, 3, k);
        let c = matmul_nt(&a, &b);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(
                    c[(i, j)].to_bits(),
                    contract::dot(a.row(i), b.row(j)).to_bits()
                );
            }
        }
        let at = rand_mat(&mut rng, k, 4);
        let bt = rand_mat(&mut rng, k, 3);
        let ct = matmul_tn(&at, &bt);
        let at_t = at.transpose();
        let bt_t = bt.transpose();
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(
                    ct[(i, j)].to_bits(),
                    contract::dot(at_t.row(i), bt_t.row(j)).to_bits()
                );
            }
        }
    }

    #[test]
    fn element_bits_do_not_depend_on_neighbour_rows() {
        // Augmented (checksum-bordered) operands must carry the same data
        // bits as the plain product: per-element independence of m.
        let mut rng = TensorRng::seed_from(37);
        let a = rand_mat(&mut rng, 9, 70);
        let b = rand_mat(&mut rng, 70, 11);
        let c_full = matmul(&a, &b);
        let a_top = a.submatrix(0, 4, 0, 70);
        let c_top = matmul(&a_top, &b);
        for i in 0..4 {
            for j in 0..11 {
                assert_eq!(c_full[(i, j)].to_bits(), c_top[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn encode_cols_matches_manual_composition() {
        let mut rng = TensorRng::seed_from(41);
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 4), (70, 150, 66), (130, 300, 9)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            let mut c = Matrix::zeros(m + 2, n);
            gemm_encode_cols_into(a.view(), b.view(), c.view_mut());
            // Data region is the plain product, bit for bit.
            let plain = matmul(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(c[(i, j)].to_bits(), plain[(i, j)].to_bits(), "{m}x{k}x{n}");
                }
            }
            // Checksum rows approximate v1ᵀ(A·B) up to GEMM round-off.
            for j in 0..n {
                let col_sum: f32 = (0..m).map(|i| plain[(i, j)]).sum();
                assert!(
                    (c[(m, j)] - col_sum).abs() <= 1e-3 + 1e-3 * col_sum.abs(),
                    "{m}x{k}x{n} col {j}: {} vs {col_sum}",
                    c[(m, j)]
                );
            }
        }
    }

    #[test]
    fn zero_sized_dims_are_handled() {
        // k = 0: the empty sum is +0.0 everywhere.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = matmul(&a, &b);
        assert!(crate::float::all_exactly_zero(c.data()));
        let mut ce = Matrix::full(5, 4, f32::NAN);
        gemm_encode_cols_into(a.view(), b.view(), ce.view_mut());
        assert!(crate::float::all_exactly_zero(ce.data()));
        // m = 0 encode: only checksum rows exist, and they are zero.
        let a0 = Matrix::zeros(0, 3);
        let b0 = rand_mat(&mut TensorRng::seed_from(47), 3, 4);
        let mut c0 = Matrix::full(2, 4, f32::NAN);
        gemm_encode_cols_into(a0.view(), b0.view(), c0.view_mut());
        assert!(crate::float::all_exactly_zero(c0.data()));
    }

    #[test]
    fn steady_state_gemm_is_allocation_free() {
        let mut rng = TensorRng::seed_from(53);
        let a = rand_mat(&mut rng, 33, 140);
        let b = rand_mat(&mut rng, 140, 21);
        let mut c = Matrix::zeros(33, 21);
        let mut ce = Matrix::zeros(35, 21);
        // Warm the arena with the exact kernel shapes…
        matmul_into(a.view(), b.view(), c.view_mut());
        gemm_encode_cols_into(a.view(), b.view(), ce.view_mut());
        let before = crate::workspace::thread_alloc_events();
        for _ in 0..5 {
            matmul_into(a.view(), b.view(), c.view_mut());
            gemm_encode_cols_into(a.view(), b.view(), ce.view_mut());
        }
        assert_eq!(
            crate::workspace::thread_alloc_events(),
            before,
            "steady-state GEMM must not allocate"
        );
    }

    // ---------------- lane-riding checksum border ----------------

    #[test]
    fn border_rides_exactly_when_the_last_micro_panel_has_two_free_lanes() {
        let rides: Vec<usize> = (0..=10).filter(|&m| border_rides_padding(m)).collect();
        assert_eq!(rides, [1, 2, 5, 6, 9, 10]);
        // The shapes the choice exists for: decode rides, prefill and
        // training keep the streaming border.
        assert!(!border_rides_padding(32) && !border_rides_padding(MC));
        assert!(border_rides_padding(MC - 2) && border_rides_padding(MC + 1));
    }

    #[test]
    fn riding_and_streaming_borders_produce_identical_bits() {
        // Both mechanisms are correct for every m; the predicate only picks
        // the cheaper one. One shape each side of it (m = 2 rides; m = 3 and
        // m = MC stream) plus a multi-row-block one, k across a KC edge.
        let mut rng = TensorRng::seed_from(71);
        for &(m, k, n) in &[
            (2, KC + 9, 19),
            (3, KC + 9, 19),
            (MC, 70, NC + 3),
            (MC + 1, 33, 9),
        ] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            let mut ride = Matrix::full(m + 2, n, f32::NAN);
            let mut stream = Matrix::full(m + 2, n, f32::NAN);
            encode_cols_riding(a.view(), src_n(b.view()), n, n, ride.data_mut());
            encode_cols_streaming(a.view(), src_n(b.view()), n, stream.data_mut());
            let mut public = Matrix::full(m + 2, n, f32::NAN);
            gemm_encode_cols_into(a.view(), b.view(), public.view_mut());
            for (i, ((r, s), p)) in ride
                .data()
                .iter()
                .zip(stream.data())
                .zip(public.data())
                .enumerate()
            {
                assert_eq!(r.to_bits(), s.to_bits(), "{m}x{k}x{n} element {i}");
                assert_eq!(r.to_bits(), p.to_bits(), "{m}x{k}x{n} element {i}");
            }
        }
    }

    // ---------------- paged-operand parity ----------------

    /// A paged copy of `mat` with deliberately awkward paging (block_rows
    /// not dividing the row count) plus `tail` border rows per block.
    fn paged_copy(mat: &Matrix, block_rows: usize, tail: usize) -> PagedKv {
        let mut kv = PagedKv::new(mat.cols(), tail, block_rows);
        for r in 0..mat.rows() {
            kv.push_row(mat.row(r));
        }
        kv
    }

    #[test]
    fn paged_nn_matches_dense_bits_across_kc_blocks() {
        // B paged along k with blocks that straddle KC boundaries; the
        // product must match the contiguous kernel bit for bit.
        let mut rng = TensorRng::seed_from(59);
        let (m, k, n) = (5, 2 * KC + 44, 7);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, k, n);
        for &block_rows in &[4usize, 16, 100] {
            let kv = paged_copy(&b, block_rows, 2);
            let mut c = Matrix::zeros(m, n);
            matmul_paged_into(a.view(), &kv, c.view_mut());
            let dense = matmul(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c[(i, j)].to_bits(),
                        dense[(i, j)].to_bits(),
                        "block_rows={block_rows} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn paged_nt_matches_dense_bits_and_leaves_extra_cols_untouched() {
        let mut rng = TensorRng::seed_from(61);
        let (m, k, n) = (3, 40, 21);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, n, k);
        let kv = paged_copy(&b, 4, 2);
        // Output two columns wider than the product; sentinels must survive.
        let mut c = Matrix::full(m, n + 2, -7.5);
        matmul_nt_paged_into(a.view(), &kv, c.view_mut());
        let dense = matmul_nt(&a, &b);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(c[(i, j)].to_bits(), dense[(i, j)].to_bits(), "({i},{j})");
            }
            assert_eq!(c[(i, n)], -7.5);
            assert_eq!(c[(i, n + 1)], -7.5);
        }
    }

    #[test]
    fn paged_encode_cols_matches_dense_bits() {
        let mut rng = TensorRng::seed_from(67);
        let (m, k, n) = (6, KC + 19, 10);
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, k, n);
        let kv = paged_copy(&b, 16, 0);
        let mut c = Matrix::zeros(m + 2, n);
        gemm_encode_cols_paged_into(a.view(), &kv, c.view_mut());
        let mut dense = Matrix::zeros(m + 2, n);
        gemm_encode_cols_into(a.view(), b.view(), dense.view_mut());
        for i in 0..m + 2 {
            for j in 0..n {
                assert_eq!(c[(i, j)].to_bits(), dense[(i, j)].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn pair_pass_equals_the_riding_product_at_every_paging_and_length() {
        // Against the general form it stands beside (all `n` columns
        // through the driver): blocks straddling the KC flush, lengths
        // around a block edge and the KC edge; `n = 14` fails the predicate.
        assert!(pair_takes_its_own_pass(1, 34) && pair_takes_its_own_pass(1, 10));
        assert!(!pair_takes_its_own_pass(1, 14) && !pair_takes_its_own_pass(2, 34));
        let mut rng = TensorRng::seed_from(73);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &block_rows in &[1usize, 3, 5, 16, 64] {
            for &len in &[1usize, 15, 16, 17, KC - 1, KC, KC + 1, 2 * KC] {
                for &n in &[34usize, 10, 14] {
                    let ap = rand_mat(&mut rng, 1, len);
                    let kv = paged_copy(&rand_mat(&mut rng, len, n), block_rows, 0);
                    let mut general = Matrix::full(3, n, f32::NAN);
                    encode_cols_riding(ap.view(), kv.src(false), n, n, general.data_mut());
                    let mut public = Matrix::full(3, n, f32::NAN);
                    gemm_encode_cols_paged_into(ap.view(), &kv, public.view_mut());
                    let case = format!("block_rows={block_rows} len={len} n={n}");
                    assert_eq!(bits(public.data()), bits(general.data()), "{case}");
                    // The data-columns-only product is the same prefix.
                    let mut narrow = Matrix::full(1, n - 2, f32::NAN);
                    matmul_paged_into(ap.view(), &kv, narrow.view_mut());
                    assert_eq!(
                        bits(narrow.data()),
                        bits(&general.row(0)[..n - 2]),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_threshold_helper_does_not_overflow() {
        // usize::MAX³ wraps any fixed-width product; the helper must
        // saturate instead of panicking (debug) or wrapping to a tiny
        // value (release).
        assert!(exceeds_par_threshold(usize::MAX, usize::MAX, usize::MAX));
        assert!(exceeds_par_threshold(usize::MAX, 1, usize::MAX));
        assert!(!exceeds_par_threshold(2, 2, 2));
        assert!(exceeds_par_threshold(256, 256, 256));
        assert!(!exceeds_par_threshold(256, 256, 255));
    }
}
