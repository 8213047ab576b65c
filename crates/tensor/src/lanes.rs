//! Protection-only reductions, stated once each, with an AVX2 tier — and
//! the AVX2 token that also licenses the GEMM microkernel.
//!
//! The reductions run only on the protected path — the AdamW moment
//! digests, the `f64` transports of the non-GEMM guard screens, the
//! row-side detection prepass — so making them faster lowers the protected
//! ÷ unprotected ratio without moving the twin. The token's one other
//! kernel runs on both sides: the AVX2 form of [`crate::gemm`]'s register
//! microkernel, whose definition (and the reason it gives the same bits)
//! stays in that module. The element and checksum
//! contracts ([`crate::contract`]) are not restated here and keep their
//! single scalar statement.
//!
//! **The order is the definition** for the float reductions, [`moments`]
//! and [`sums`]. Lane `l` of [`LANES`] owns the elements `j ≡ l (mod 8)`
//! and accumulates them ascending; the eight lane partials fold as
//! `((0+1)+(2+3))+((4+5)+(6+7))`. Nothing stored or replayed depends on
//! these values across a process boundary (screens yield a verdict), so the
//! order is ours to choose, and an eight-wide order is one a vector unit
//! executes as written. [`digest`] and [`digest_columns`] have no order to
//! state: they are wrapping integer arithmetic over the bit patterns, the
//! same in any order.
//!
//! **Tiers.** Each reduction has one scalar definition (`*_def`) and an
//! AVX2 form in `mod arch`. The AVX2 forms are private to `arch` and
//! reached only through the methods of its `Avx2` token, whose one
//! constructor, `Avx2::detect`, holds the tree's one CPU feature check: so
//! the compiler, not a lint, keeps an AVX2 kernel from running on a CPU
//! that lacks it. The AVX2 forms of [`digest`] and [`digest_columns`] are
//! their definitions compiled for AVX2. The float forms are written by hand (`std::arch`, one intrinsic
//! per line of the definition) because the optimiser does not keep
//! eight-lane accumulator arrays in vector registers on its own (measured
//! 0.9 ns per cell against 0.22). Same IEEE
//! operations in the same order per lane, multiplies and adds as separate
//! instructions — FMA is never enabled, so a product is rounded before it
//! is added in both tiers — and the module's proptest holds every
//! dispatcher to its definition bit for bit. The tier is chosen by CPU
//! detection alone: there is no knob, and [`tier`] exists so tests and CI
//! can say which one ran.
//!
//! The across-output loops of the protected path (every lane a different
//! output) are zipped slices at their own sites and carry no tier:
//! [`crate::gemm`]'s module docs record what one measured.

/// Lane count of the lane-ordered reductions in this module.
pub const LANES: usize = 8;

#[cfg(target_arch = "x86_64")]
pub(crate) use arch::Avx2;

/// Where there is no AVX2 the token is uninhabited: `detect` is always
/// `None`, so a tier-taking caller always runs the scalar definition.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy)]
pub(crate) enum Avx2 {}

#[cfg(not(target_arch = "x86_64"))]
impl Avx2 {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    pub(crate) fn microkernel(
        self,
        _: &[f32],
        _: &[f32],
        _: &mut [[f32; crate::gemm::NR]; crate::gemm::MR],
    ) {
        match self {}
    }
}

/// Name of the tier the dispatchers below select on this CPU.
pub fn tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if arch::Avx2::detect().is_some() {
        return "avx2";
    }
    "scalar"
}

/// The lane fold: `((0+1)+(2+3))+((4+5)+(6+7))`.
#[inline(always)]
fn fold<T: Copy + std::ops::Add<Output = T>>(l: [T; LANES]) -> T {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Visit `row` as [`LANES`]-wide chunks, the tail zero-padded. A padded
/// lane adds `+0.0` (or XORs zero bits) to a partial that is never `-0.0`
/// — a bitwise identity — so this *is* "lane `l` owns `j ≡ l (mod 8)`".
#[inline(always)]
fn for_chunks(row: &[f32], mut f: impl FnMut(&[f32; LANES])) {
    let (chunks, tail) = row.as_chunks::<LANES>();
    chunks.iter().for_each(&mut f);
    if !tail.is_empty() {
        let mut pad = [0.0f32; LANES];
        pad[..tail.len()].copy_from_slice(tail);
        f(&pad);
    }
}

/// The AdamW moment digest of one row over its `f32` bit patterns `b_j`
/// ([`digest`]). The linear `sum`, `wsum` and `xor` locate and restore one
/// changed cell `j`: a change `d` moves the sums by exactly `d` and
/// `(j+1)·d`. They also miss any multi-cell change with zero sum, zero first
/// moment and an even XOR, such as exponent flips over four cells whose bit
/// reads 0, 1, 1, 0; `check` only detects, and sees those.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Wrapping `Σ b_j`.
    pub sum: u64,
    /// Wrapping `Σ (j+1)·b_j`.
    pub wsum: u64,
    /// `⊕ b_j`.
    pub xor: u32,
    /// `q ⊕ (q ≫ 32)` of the wrapping `u64` `q = Σ (b_j ⊕ k_j)²`, keyed by
    /// `k_j = (j+1)·0x9E3779B9` (wrapping `u32`): a square's change depends
    /// on the value it changes, the key's on where. 0 in a column digest.
    pub check: u32,
}

/// Add one cell, bit pattern `b` at weight `w` (its index + 1), to the
/// linear sums of a [`Digest`] — the one statement of them, which
/// [`digest`], [`digest_columns`] and a column walk all use.
#[inline(always)]
pub fn digest_cell(sum: &mut u64, wsum: &mut u64, xor: &mut u32, b: u32, w: u32) {
    *sum = sum.wrapping_add(u64::from(b));
    *wsum = wsum.wrapping_add(u64::from(b) * u64::from(w));
    *xor ^= b;
}

/// The definition, and the AVX2 form's body: wrapping integer sums are
/// order-free, so the optimiser may vectorise it any way it likes. With the
/// check term in a loop of its own it ran 0.19 ms, fused 0.21 (454 530
/// cells in rows of 128, 2-vCPU Xeon).
#[inline(always)]
fn digest_def(row: &[f32]) -> Digest {
    let mut d = Digest::default();
    let (s, ws, x) = (&mut d.sum, &mut d.wsum, &mut d.xor);
    for (j, v) in row.iter().enumerate() {
        digest_cell(s, ws, x, v.to_bits(), (j + 1) as u32);
    }
    let (mut q, mut k) = (0u64, 0u32);
    for v in row {
        k = k.wrapping_add(0x9E37_79B9);
        let t = u64::from(v.to_bits() ^ k);
        q = q.wrapping_add(t * t);
    }
    d.check = (q ^ q >> 32) as u32;
    d
}

/// The definition, and the AVX2 form's body, of [`digest_columns`].
#[inline(always)]
fn digest_columns_def(row: &[f32], w: u32, sum: &mut [u64], wsum: &mut [u64], xor: &mut [u32]) {
    let sums = sum.iter_mut().zip(wsum);
    for ((s, ws), (x, v)) in sums.zip(xor.iter_mut().zip(row)) {
        digest_cell(s, ws, x, v.to_bits(), w);
    }
}

#[inline(always)]
fn moments_def(row: &[f32]) -> (f64, f64, f64) {
    let (mut s, mut a, mut q) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
    for_chunks(row, |c| {
        for l in 0..LANES {
            let vf = f64::from(c[l]);
            s[l] += vf;
            a[l] += vf.abs();
            q[l] += vf * vf;
        }
    });
    (fold(s), fold(a), fold(q))
}

#[inline(always)]
fn sums_def(row: &[f32]) -> (f32, f32, f32) {
    let (mut s, mut ws, mut a) = ([0.0f32; LANES], [0.0f32; LANES], [0.0f32; LANES]);
    let mut w: [f32; LANES] = std::array::from_fn(|l| (l + 1) as f32);
    for_chunks(row, |c| {
        for l in 0..LANES {
            s[l] += c[l];
            ws[l] += w[l] * c[l];
            w[l] += LANES as f32;
            a[l] += c[l].abs();
        }
    });
    (fold(s), fold(ws), fold(a))
}

/// The AdamW moment digest of `row` ([`Digest`]). Exact and order-free.
pub fn digest(row: &[f32]) -> Digest {
    #[cfg(target_arch = "x86_64")]
    if let Some(t) = arch::Avx2::detect() {
        return t.digest(row);
    }
    digest_def(row)
}

/// Add `row`, at row weight `w` (its index + 1), into column digests held
/// field by field: cell `c` goes into `sum[c]`, `wsum[c]` and `xor[c]`
/// ([`digest_cell`]). A column digest carries no `check`.
pub fn digest_columns(row: &[f32], w: u32, sum: &mut [u64], wsum: &mut [u64], xor: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(t) = arch::Avx2::detect() {
        return t.digest_columns(row, w, sum, wsum, xor);
    }
    digest_columns_def(row, w, sum, wsum, xor)
}

/// `(Σx, Σ|x|, Σx²)` of `row` in `f64`, lane-ordered — the transport and
/// moment sums of the non-GEMM guard screens. `Σ|x|` is finite exactly
/// when every element is.
pub fn moments(row: &[f32]) -> (f64, f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if let Some(t) = arch::Avx2::detect() {
        return t.moments(row);
    }
    moments_def(row)
}

/// `(Σx, Σ(j+1)·x, Σ|x|)` of `row` in `f32`, lane-ordered — the detection
/// prepass of a row against its stored checksums (a verdict, never a
/// stored value: the checksum contract is [`crate::contract::row_sums`]).
pub fn sums(row: &[f32]) -> (f32, f32, f32) {
    debug_assert!(row.len() < 1 << 24, "lane weights are exact integers");
    #[cfg(target_arch = "x86_64")]
    if let Some(t) = arch::Avx2::detect() {
        return t.sums(row);
    }
    sums_def(row)
}

/// The AVX2 forms of the reductions and of the GEMM microkernel. Each
/// statement of a float reduction below is one line of the matching
/// `*_def`, eight lanes at a time; pointer-free intrinsics are
/// safe inside an AVX2-enabled function (loads and stores go through
/// arrays), so the only `unsafe` is the call into one, in the [`Avx2`]
/// methods.
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "calling a `#[target_feature]` fn is `unsafe`; the `Avx2` token makes each call sound"
)]
mod arch {
    use super::{digest_columns_def, digest_def, for_chunks, Digest, LANES};
    use crate::gemm::{MR, NR};
    use std::arch::x86_64::*;

    /// Proof that this CPU runs AVX2. The private field makes
    /// [`Avx2::detect`] the only way to build one, so holding an `Avx2` is
    /// what licenses a call into the kernels below — detect once, then
    /// pass the token down.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        /// `Some` exactly when the CPU reports AVX2.
        pub(crate) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Self(()))
        }

        /// [`crate::gemm`]'s register microkernel, [`NR`] output columns as
        /// two eight-lane halves.
        #[inline]
        pub(crate) fn microkernel(self, apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
            // SAFETY: an Avx2 exists only after detect() saw AVX2.
            unsafe { microkernel_avx2(apan, bpan, acc) }
        }

        #[inline]
        pub(super) fn digest(self, row: &[f32]) -> Digest {
            // SAFETY: an Avx2 exists only after detect() saw AVX2.
            unsafe { digest_avx2(row) }
        }

        #[inline]
        pub(super) fn digest_columns(
            self,
            row: &[f32],
            w: u32,
            sum: &mut [u64],
            wsum: &mut [u64],
            xor: &mut [u32],
        ) {
            // SAFETY: an Avx2 exists only after detect() saw AVX2.
            unsafe { digest_columns_avx2(row, w, sum, wsum, xor) }
        }

        #[inline]
        pub(super) fn moments(self, row: &[f32]) -> (f64, f64, f64) {
            // SAFETY: an Avx2 exists only after detect() saw AVX2.
            unsafe { moments_avx2(row) }
        }

        #[inline]
        pub(super) fn sums(self, row: &[f32]) -> (f32, f32, f32) {
            // SAFETY: an Avx2 exists only after detect() saw AVX2.
            unsafe { sums_avx2(row) }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(c: &[f32; LANES]) -> __m256 {
        _mm256_setr_ps(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
    }

    /// Lanes `0..4` and `4..8` as `f64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn widen(v: __m256) -> [__m256d; 2] {
        [
            _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)),
        ]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn add2(acc: &mut [__m256d; 2], v: [__m256d; 2]) {
        *acc = [_mm256_add_pd(acc[0], v[0]), _mm256_add_pd(acc[1], v[1])];
    }

    /// `((0+1)+(2+3))+((4+5)+(6+7))` of the lanes `[lo | hi]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fold_pd([lo, hi]: [__m256d; 2]) -> f64 {
        let pairs = _mm256_hadd_pd(lo, hi); // [0+1, 4+5, 2+3, 6+7]
        let quads = _mm_add_pd(
            _mm256_castpd256_pd128(pairs),
            _mm256_extractf128_pd::<1>(pairs),
        );
        _mm_cvtsd_f64(quads) + _mm_cvtsd_f64(_mm_unpackhi_pd(quads, quads))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn fold_ps(v: __m256) -> f32 {
        let pairs = _mm256_hadd_ps(v, v); // [0+1, 2+3, .. | 4+5, 6+7, ..]
        let quads = _mm256_hadd_ps(pairs, pairs);
        _mm_cvtss_f32(_mm256_castps256_ps128(quads))
            + _mm_cvtss_f32(_mm256_extractf128_ps::<1>(quads))
    }

    /// Columns `j0..j0 + LANES` of an `NR`-wide tile row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_cols(r: &[f32; NR], j0: usize) -> __m256 {
        let c = &r[j0..j0 + LANES];
        _mm256_setr_ps(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
    }

    /// Store `v` into columns `j0..j0 + LANES` of an `NR`-wide tile row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_cols(v: __m256, r: &mut [f32; NR], j0: usize) {
        let (lo, hi) = (_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let f = |bits: i32| f32::from_bits(bits as u32);
        r[j0..j0 + LANES].copy_from_slice(&[
            _mm_cvtss_f32(lo),
            f(_mm_extract_ps::<1>(lo)),
            f(_mm_extract_ps::<2>(lo)),
            f(_mm_extract_ps::<3>(lo)),
            _mm_cvtss_f32(hi),
            f(_mm_extract_ps::<1>(hi)),
            f(_mm_extract_ps::<2>(hi)),
            f(_mm_extract_ps::<3>(hi)),
        ]);
    }

    const _: () = assert!(NR == 2 * LANES, "a tile row is two ymm halves");

    /// `acc[r][j] += Σ_k apan[k·MR+r] · bpan[k·NR+j]`, the scalar
    /// `gemm::microkernel` with `j` across lanes: every lane is a different
    /// output element, each takes its products `k` ascending, rounded by the
    /// multiply before the add. `inline(never)` keeps the eight
    /// accumulators in ymm registers (inlined into a caller compiled for
    /// AVX2, the tile ran at ≈ 2 GFLOP/s).
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    fn microkernel_avx2(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
        let mut c = [[_mm256_setzero_ps(); 2]; MR];
        for (cr, row) in c.iter_mut().zip(acc.iter()) {
            *cr = [load_cols(row, 0), load_cols(row, LANES)];
        }
        let (ak, bk) = (apan.as_chunks::<MR>().0, bpan.as_chunks::<NR>().0);
        for (ak, bk) in ak.iter().zip(bk) {
            let b = [load_cols(bk, 0), load_cols(bk, LANES)];
            for (cr, &av) in c.iter_mut().zip(ak) {
                let av = _mm256_set1_ps(av);
                *cr = [
                    _mm256_add_ps(cr[0], _mm256_mul_ps(av, b[0])),
                    _mm256_add_ps(cr[1], _mm256_mul_ps(av, b[1])),
                ];
            }
        }
        for (row, cr) in acc.iter_mut().zip(c) {
            store_cols(cr[0], row, 0);
            store_cols(cr[1], row, LANES);
        }
    }

    /// The definition itself, compiled for AVX2: no intrinsics.
    #[target_feature(enable = "avx2")]
    fn digest_avx2(row: &[f32]) -> Digest {
        digest_def(row)
    }

    #[target_feature(enable = "avx2")]
    fn digest_columns_avx2(
        row: &[f32],
        w: u32,
        sum: &mut [u64],
        wsum: &mut [u64],
        xor: &mut [u32],
    ) {
        digest_columns_def(row, w, sum, wsum, xor)
    }

    #[target_feature(enable = "avx2")]
    fn moments_avx2(row: &[f32]) -> (f64, f64, f64) {
        let zero = _mm256_setzero_pd();
        let (mut s, mut a, mut q) = ([zero; 2], [zero; 2], [zero; 2]);
        let sign = _mm256_set1_pd(-0.0);
        for_chunks(row, |c| {
            let vf = widen(load(c));
            add2(&mut s, vf);
            add2(
                &mut a,
                [_mm256_andnot_pd(sign, vf[0]), _mm256_andnot_pd(sign, vf[1])],
            );
            add2(
                &mut q,
                [_mm256_mul_pd(vf[0], vf[0]), _mm256_mul_pd(vf[1], vf[1])],
            );
        });
        (fold_pd(s), fold_pd(a), fold_pd(q))
    }

    #[target_feature(enable = "avx2")]
    fn sums_avx2(row: &[f32]) -> (f32, f32, f32) {
        let zero = _mm256_setzero_ps();
        let (mut s, mut ws, mut a) = (zero, zero, zero);
        let mut w = _mm256_setr_ps(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
        let (step, sign) = (_mm256_set1_ps(LANES as f32), _mm256_set1_ps(-0.0));
        for_chunks(row, |c| {
            let v = load(c);
            s = _mm256_add_ps(s, v);
            ws = _mm256_add_ps(ws, _mm256_mul_ps(w, v));
            w = _mm256_add_ps(w, step);
            a = _mm256_add_ps(a, _mm256_andnot_ps(sign, v));
        });
        (fold_ps(s), fold_ps(ws), fold_ps(a))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::TensorRng;
    use proptest::prelude::*;

    /// Same bits — or both NaN: which payload survives `NaN + NaN` is an
    /// operand-order detail IEEE-754 leaves open.
    fn same64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    pub(crate) fn same32(a: f32, b: f32) -> bool {
        same64(f64::from(a), f64::from(b))
    }

    const INF: f32 = f32::INFINITY;
    pub(crate) const SPECIALS: [f32; 7] = [-0.0, INF, -INF, f32::NAN, 1.0e-40, -3.0e-45, 3.0e38];

    /// `len` values at an arbitrary (unaligned) offset into a buffer, with
    /// `plant` special values dropped in.
    fn row(len: usize, offset: usize, plant: usize, seed: u64) -> Vec<f32> {
        let mut rng = TensorRng::seed_from(seed);
        let mut buf = rng.normal_matrix(1, offset + len + 1, 2.0).data().to_vec();
        for i in 0..plant.min(len) {
            buf[offset + (seed as usize + 7 * i) % len] = SPECIALS[(seed as usize + i) % 7];
        }
        buf[offset..offset + len].to_vec()
    }

    #[test]
    fn report_tier() {
        println!("tier: {}", tier());
    }

    proptest! {
        #[test]
        fn every_dispatcher_equals_its_scalar_definition_bit_for_bit(
            offset in 0usize..9,
            plant in 0usize..4,
            seed in 0u64..100_000,
        ) {
            for len in (0..=25).chain([63, 64, 65, 127, 128, 129, 512]) {
                // An unaligned sub-slice of a larger buffer.
                let buf = row(len + offset, 0, plant, seed);
                let r = &buf[offset..];
                prop_assert_eq!(digest(r), digest_def(r), "digest {}", len);
                let mut got = (vec![1; len], vec![2; len], vec![3; len]);
                let mut want = got.clone();
                digest_columns(r, seed as u32, &mut got.0, &mut got.1, &mut got.2);
                digest_columns_def(r, seed as u32, &mut want.0, &mut want.1, &mut want.2);
                prop_assert_eq!(got, want, "columns {}", len);
                let (got, want) = (moments(r), moments_def(r));
                prop_assert!(
                    same64(got.0, want.0) && same64(got.1, want.1) && same64(got.2, want.2),
                    "moments {}", len
                );
                let (got, want) = (sums(r), sums_def(r));
                prop_assert!(
                    same32(got.0, want.0) && same32(got.1, want.1) && same32(got.2, want.2),
                    "sums {}", len
                );
            }
        }

    }

    #[test]
    fn lane_order_is_the_stated_one() {
        // 1e8 absorbs a unit in f32, so the order of additions shows: lane
        // 0 holds 1e8 + 1 (elements 0 and 8) and folds with lane 1 first.
        let mut r = vec![0.0f32; 16];
        (r[0], r[1], r[8]) = (1.0e8, -1.0e8, 1.0);
        let lane0 = 1.0e8f32 + 1.0;
        assert_eq!(sums(&r).0.to_bits(), (lane0 + -1.0e8f32).to_bits());
        // The digest sums the bit patterns of 1e8, -1e8 and 1; the weighted
        // sum sees j + 1.
        let [a, b, c] = [0x4cbe_bc20u64, 0xccbe_bc20, 0x3f80_0000];
        let d = digest(&r);
        assert_eq!(
            (d.sum, d.wsum, d.xor),
            (a + b + c, a + 2 * b + 9 * c, (a ^ b ^ c) as u32)
        );
        // One zero cell: the check is the key 0x9E3779B9 squared,
        // 0x61c88645_e35e67b1, folded.
        assert_eq!(digest(&[0.0]).check, 0x61c8_8645 ^ 0xe35e_67b1);
        (r[0], r[1], r[8]) = (1.0, -2.0, 3.0);
        assert_eq!(moments(&r), (2.0, 6.0, 14.0));
    }
}
