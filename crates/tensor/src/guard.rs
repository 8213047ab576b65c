//! Guards for the non-GEMM operators.
//!
//! Exact checksum transport stops at a nonlinearity: softmax, LayerNorm,
//! and GELU all destroy the linear relation a ride-along checksum
//! encodes, so their guarded wrappers use a two-tier scheme instead:
//!
//! 1. a **cheap invariant screen** over the op's output — softmax rows
//!    sum to one, LayerNorm's normalised rows have ~zero mean and unit
//!    variance, GELU output is bounded by its input;
//! 2. on a screen violation, an **exact recompute from the preserved
//!    inputs**, adopted only when it differs *bitwise* from the live
//!    output.
//!
//! The bitwise gate is what makes false positives structurally zero: a
//! screen that trips on tolerance (or on legitimately non-finite inputs
//! propagating through — which the screens cannot distinguish from a
//! fault) recomputes a bit-identical value and records nothing, while a
//! genuine fault striking between compute and check recomputes the
//! fault-free bits. A heal is therefore always an exact correction, and
//! a corrected step is bit-identical to a fault-free step.
//!
//! The screens are single branch-free sweeps — a verdict folded with `&`,
//! never an early exit, non-finite values caught by the sums they poison —
//! over the lane-ordered `f64` sums of [`crate::lanes`], whose order and
//! tiers DESIGN.md states once ("The accumulation-order contract", tiers).
//!
//! The two element-wise adds, the residual add and the embedding gather,
//! skip the screen: adding a row again costs less than any screen of it,
//! so their check *is* the recompute, compared bit for bit ([`verify_add`]).
//! That check is exact — every flipped bit of every cell, no tolerance.
//!
//! Every op ships as a `verify_*` entry (check + heal an existing
//! output against its preserved inputs — what the fault campaigns drive
//! directly) plus a `*_checked` wrapper (compute + verify — what the
//! model paths call). The plain ops they wrap are crate-private: outside
//! this crate the `*_checked` wrapper is the op, and the wrapper under
//! [`OpGuard::off`] is its unguarded form (see [`OpGuard`]).

use crate::lanes;
use crate::matrix::Matrix;
use crate::ops::{
    gelu, gelu_backward, layer_norm, layer_norm_backward, softmax_rows_backward,
    softmax_rows_inplace, LayerNormCache,
};
use std::cell::Cell;

/// Lower bound of the GELU range (the true minimum is ≈ −0.1700 at
/// x ≈ −0.7509); anything below it cannot be a GELU output. The sweep in
/// `ops::tests` holds `GELU_MIN_OUT ≤ gelu(x) ≤ max(x, 0)` over every
/// finite `f32`, so clean data never trips the screen.
pub(crate) const GELU_MIN_OUT: f32 = -0.2;

/// Upper bound on |gelu′(x)| (the true maximum is ≈ 1.0836); `|dx|` from
/// the GELU backward can never exceed this multiple of `|dy|`. The same
/// sweep holds it over every finite `f32`.
pub(crate) const GELU_GRAD_BOUND: f32 = 1.13;

/// Activity counters one [`OpGuard`] accumulates; folded into the report
/// where the execution context that owns the guard closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Checks evaluated (one per guarded row): an invariant screen, or an
    /// add computed again.
    pub checks: usize,
    /// Checks whose exact recompute differed bitwise from the live
    /// output — i.e. genuine detections, never tolerance trips.
    pub detections: usize,
    /// Exact recomputes adopted. Equals `detections` for the op guards:
    /// recomputing from preserved inputs *is* the heal.
    pub heals: usize,
    /// Detections that could not be healed (multi-cell corruption beyond
    /// the guard's locate-and-restore capability).
    pub unrecovered: usize,
}

impl GuardStats {
    /// True when no screen ever found a bitwise deviation.
    pub fn is_quiet(&self) -> bool {
        self.detections == 0 && self.unrecovered == 0
    }
}

/// The guard scope of one execution's non-GEMM operators.
///
/// The execution context opens one and shares it by reference across
/// every checked wrapper; stats accumulate through a [`Cell`] so the guard can be
/// borrowed immutably alongside the tensors it protects. An inactive
/// guard makes every wrapper a pass-through of the plain op — the same
/// convention as an inactive `GuardedSection` around a GEMM.
///
/// The guarded op is the public op. The plain ops are crate-private, so a
/// call from outside this crate does not compile —
///
/// ```compile_fail,E0603
/// use attn_tensor::Matrix;
/// let x = Matrix::full(2, 4, 1.0);
/// let (y, _) = attn_tensor::ops::layer_norm(&x, &[1.0; 4], &[0.0; 4], 1e-5);
/// ```
///
/// — and neither does the unguarded residual add:
///
/// ```compile_fail,E0624
/// use attn_tensor::Matrix;
/// let sum = Matrix::full(2, 4, 1.0).add(&Matrix::full(2, 4, 2.0));
/// ```
///
/// The unguarded form of a guarded op is its `*_checked` call under
/// [`OpGuard::off`], which returns before it screens anything:
///
/// ```
/// use attn_tensor::guard::{layer_norm_checked, residual_add_checked};
/// use attn_tensor::{Matrix, OpGuard};
/// let off = OpGuard::off();
/// let x = Matrix::full(2, 4, 1.0);
/// let (y, _) = layer_norm_checked(&x, &[1.0; 4], &[0.0; 4], 1e-5, &off);
/// let sum = residual_add_checked(&x, &y, &off);
/// assert_eq!(sum.data(), x.data());
/// assert_eq!(off.stats().checks, 0);
/// ```
#[derive(Debug, Default)]
pub struct OpGuard {
    active: bool,
    tol: f32,
    stats: Cell<GuardStats>,
}

impl OpGuard {
    /// Build a guard; `tol` scales every invariant screen (a typical
    /// value is the ABFT detection tolerance, ~5e-4).
    pub fn new(active: bool, tol: f32) -> Self {
        Self {
            active,
            tol,
            stats: Cell::new(GuardStats::default()),
        }
    }

    /// A disabled guard: every checked wrapper degenerates to the plain
    /// op, bit for bit. This is the one public spelling of an unguarded
    /// non-GEMM op (baseline paths, clean references).
    pub fn off() -> Self {
        Self::new(false, 0.0)
    }

    /// Does this guard screen at all?
    pub fn active(&self) -> bool {
        self.active
    }

    /// Screen tolerance.
    pub fn tol(&self) -> f32 {
        self.tol
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> GuardStats {
        self.stats.get()
    }

    /// Drain the counters (for folding into a step report).
    pub fn take_stats(&self) -> GuardStats {
        self.stats.replace(GuardStats::default())
    }

    fn bump(&self, f: impl FnOnce(&mut GuardStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Record one screen evaluation (here or by a guard whose logic lives
    /// elsewhere, e.g. the optimizer's moment digests).
    pub fn record_check(&self) {
        self.bump(|s| s.checks += 1);
    }

    /// Record one detection healed exactly.
    pub fn record_heal(&self) {
        self.bump(|s| {
            s.detections += 1;
            s.heals += 1;
        });
    }

    /// Record a detection the caller could not restore (multi-cell
    /// corruption beyond a locate-and-restore guard's capability).
    pub fn record_unrecovered(&self) {
        self.bump(|s| {
            s.detections += 1;
            s.unrecovered += 1;
        });
    }
}

/// Adopt `reference` into row `r` of `y` iff it differs bitwise; records
/// a detection + heal on the guard when it does.
fn heal_row_bitwise(y: &mut Matrix, r: usize, reference: &[f32], g: &OpGuard) {
    if bits_differ(y.row(r), reference) {
        y.row_mut(r).copy_from_slice(reference);
        g.record_heal();
    }
}

fn bits_differ(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// One-row matrix copy of row `r` of `x` — recompute scratch, built only
/// on a screen violation.
fn row_matrix(x: &Matrix, r: usize) -> Matrix {
    Matrix::from_vec(1, x.cols(), x.row(r).to_vec())
}

// ---------------------------------------------------------------------------
// softmax
// ---------------------------------------------------------------------------

/// Does this row look like a softmax output? All entries in `[0, 1]` and
/// summing to ~1 — or exactly zero everywhere (a fully-masked row).
fn softmax_row_screen(row: &[f32], tol: f32) -> bool {
    // NaN fails the range test, so poisoned rows always re-verify.
    let in_range = row.iter().fold(true, |ok, v| ok & (0.0..=1.0).contains(v));
    let (sum, _, _) = lanes::moments(row);
    in_range && ((sum - 1.0).abs() <= f64::from(tol) || crate::float::all_exactly_zero(row))
}

/// Screen + heal a softmax output `y` against its preserved pre-softmax
/// input `x` (post-mask scores). Rows failing the row-sum screen are
/// recomputed from `x`; the recompute is adopted only when it differs
/// bitwise (see the module docs for why this cannot false-positive).
///
/// # Panics
/// Panics on shape mismatch.
pub fn verify_softmax_rows(x: &Matrix, y: &mut Matrix, g: &OpGuard) {
    if !g.active() {
        return;
    }
    assert_eq!(
        (x.rows(), x.cols()),
        (y.rows(), y.cols()),
        "verify_softmax_rows: shape mismatch"
    );
    for r in 0..y.rows() {
        g.record_check();
        if softmax_row_screen(y.row(r), g.tol()) {
            continue;
        }
        let mut reference = row_matrix(x, r);
        softmax_rows_inplace(&mut reference);
        heal_row_bitwise(y, r, reference.row(0), g);
    }
}

/// Guarded row softmax: compute, then screen/heal against the input.
pub fn softmax_rows_checked(x: &Matrix, g: &OpGuard) -> Matrix {
    let mut y = x.clone();
    softmax_rows_inplace(&mut y);
    verify_softmax_rows(x, &mut y, g);
    y
}

/// Guarded in-place row softmax. No snapshot is kept: `pre` rebuilds the
/// pre-softmax scores, and runs only when some row fails the screen — the
/// rows then recompute from it exactly as [`verify_softmax_rows`] heals.
pub fn softmax_rows_checked_inplace(x: &mut Matrix, g: &OpGuard, pre: impl FnOnce() -> Matrix) {
    softmax_rows_inplace(x);
    if !g.active() {
        return;
    }
    if (0..x.rows()).all(|r| softmax_row_screen(x.row(r), g.tol())) {
        (0..x.rows()).for_each(|_| g.record_check());
    } else {
        verify_softmax_rows(&pre(), x, g);
    }
}

/// Screen + heal a softmax-backward output `dx` against `(y, dy)`. The
/// invariant: rows of a softmax Jacobian product sum to zero
/// (`Σ_c y_c(dy_c − s) = s − s·Σy = 0` when `Σy = 1`).
pub fn verify_softmax_backward(y: &Matrix, dy: &Matrix, dx: &mut Matrix, g: &OpGuard) {
    if !g.active() {
        return;
    }
    for r in 0..dx.rows() {
        g.record_check();
        if zero_rowsum_screen(dx.row(r), g.tol()) {
            continue;
        }
        let reference = softmax_rows_backward(&row_matrix(y, r), &row_matrix(dy, r));
        heal_row_bitwise(dx, r, reference.row(0), g);
    }
}

/// Guarded softmax backward; see [`verify_softmax_backward`].
pub fn softmax_rows_backward_checked(y: &Matrix, dy: &Matrix, g: &OpGuard) -> Matrix {
    let mut dx = softmax_rows_backward(y, dy);
    verify_softmax_backward(y, dy, &mut dx, g);
    dx
}

/// All-finite row summing to ~zero (scaled by the row's absolute mass,
/// which is finite exactly when every element is).
fn zero_rowsum_screen(row: &[f32], tol: f32) -> bool {
    let (sum, scale, _) = lanes::moments(row);
    scale.is_finite() && sum.abs() <= f64::from(tol) * (1.0 + scale)
}

// ---------------------------------------------------------------------------
// layer norm
// ---------------------------------------------------------------------------

/// Does this row of normalised activations have ~zero mean and ~unit
/// variance (the LayerNorm invariant), and does the affine output
/// mirror it bitwise? The variance band is widened by 100× the
/// tolerance: with `d` summands its estimate is much noisier than the
/// mean's. The affine stage (`n·γ + β`) is cheap, so it is re-derived
/// from the screened normalised row and compared bit-for-bit — strict
/// IEEE `f32` arithmetic makes the mirror exact fault-free. The same
/// mirror trick re-derives the normalised row from `(x, mean, inv_std)`,
/// so a corrupted cached statistic breaks the chain and is caught too;
/// only the expensive row reductions (mean/variance) go unduplicated.
#[allow(clippy::too_many_arguments)]
fn layer_norm_row_screen(
    x: &[f32],
    mean: f32,
    inv_std: f32,
    normalized: &[f32],
    out: &[f32],
    gamma: &[f32],
    beta: &[f32],
    tol: f32,
) -> bool {
    let d = normalized.len() as f64;
    let (sum, _, sq) = lanes::moments(normalized);
    // A non-finite element makes `sq` non-finite, which fails the band.
    let in_band =
        (sum / d).abs() <= f64::from(tol) && (sq / d - 1.0).abs() <= 100.0 * f64::from(tol);
    in_band
        && x.iter()
            .zip(normalized)
            .zip(out)
            .zip(gamma.iter().zip(beta))
            .fold(true, |ok, (((&xi, &n), &o), (&gc, &bc))| {
                ok & (((xi - mean) * inv_std).to_bits() == n.to_bits())
                    & ((n * gc + bc).to_bits() == o.to_bits())
            })
}

/// Screen + heal a LayerNorm output and its cache against the preserved
/// input `x`: every row's normalised activations must have ~zero mean
/// and ~unit variance and the affine output must be finite. A violating
/// row is recomputed — output, cache statistics and all.
pub fn verify_layer_norm(
    x: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut Matrix,
    cache: &mut LayerNormCache,
    g: &OpGuard,
) {
    if !g.active() {
        return;
    }
    for r in 0..out.rows() {
        g.record_check();
        let stats_ok = cache.mean[r].is_finite() && cache.inv_std[r].is_finite();
        if stats_ok
            && layer_norm_row_screen(
                x.row(r),
                cache.mean[r],
                cache.inv_std[r],
                cache.normalized.row(r),
                out.row(r),
                gamma,
                beta,
                g.tol(),
            )
        {
            continue;
        }
        let (ref_out, ref_cache) = layer_norm(&row_matrix(x, r), gamma, beta, eps);
        let differs = bits_differ(out.row(r), ref_out.row(0))
            || bits_differ(cache.normalized.row(r), ref_cache.normalized.row(0))
            || cache.mean[r].to_bits() != ref_cache.mean[0].to_bits()
            || cache.inv_std[r].to_bits() != ref_cache.inv_std[0].to_bits();
        if differs {
            out.row_mut(r).copy_from_slice(ref_out.row(0));
            cache
                .normalized
                .row_mut(r)
                .copy_from_slice(ref_cache.normalized.row(0));
            cache.mean[r] = ref_cache.mean[0];
            cache.inv_std[r] = ref_cache.inv_std[0];
            g.record_heal();
        }
    }
}

/// Guarded LayerNorm; see [`verify_layer_norm`].
pub fn layer_norm_checked(
    x: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    g: &OpGuard,
) -> (Matrix, LayerNormCache) {
    let (mut out, mut cache) = layer_norm(x, gamma, beta, eps);
    verify_layer_norm(x, gamma, beta, eps, &mut out, &mut cache, g);
    (out, cache)
}

/// Screen + heal a LayerNorm backward result against its inputs. Screen:
/// `dx` rows sum to ~zero (both the mean-subtraction and the
/// normalised-projection term cancel row-wise, since the normalised row
/// itself has zero mean). `dgamma`/`dbeta` accumulate across rows, so a
/// violation recomputes the whole backward to stay bit-identical.
pub fn verify_layer_norm_backward(
    dy: &Matrix,
    cache: &LayerNormCache,
    gamma: &[f32],
    dx: &mut Matrix,
    dgamma: &mut Vec<f32>,
    dbeta: &mut Vec<f32>,
    g: &OpGuard,
) {
    if !g.active() {
        return;
    }
    let mut violated = false;
    for r in 0..dx.rows() {
        g.record_check();
        // A non-finite upstream gradient legitimately breaks the row-sum
        // identity; the recompute below resolves propagation vs fault.
        if !zero_rowsum_screen(dx.row(r), g.tol()) {
            violated = true;
        }
    }
    if !violated {
        return;
    }
    let (ref_dx, ref_dgamma, ref_dbeta) = layer_norm_backward(dy, cache, gamma);
    let differs = bits_differ(dx.data(), ref_dx.data())
        || bits_differ(dgamma, &ref_dgamma)
        || bits_differ(dbeta, &ref_dbeta);
    if differs {
        *dx = ref_dx;
        *dgamma = ref_dgamma;
        *dbeta = ref_dbeta;
        g.record_heal();
    }
}

/// Guarded LayerNorm backward; see [`verify_layer_norm_backward`].
pub fn layer_norm_backward_checked(
    dy: &Matrix,
    cache: &LayerNormCache,
    gamma: &[f32],
    g: &OpGuard,
) -> (Matrix, Vec<f32>, Vec<f32>) {
    let (mut dx, mut dgamma, mut dbeta) = layer_norm_backward(dy, cache, gamma);
    verify_layer_norm_backward(dy, cache, gamma, &mut dx, &mut dgamma, &mut dbeta, g);
    (dx, dgamma, dbeta)
}

// ---------------------------------------------------------------------------
// GELU
// ---------------------------------------------------------------------------

/// Every GELU output is finite, bounded below by the global GELU minimum
/// and above by `max(x, 0)`. Non-finite inputs defer to the recompute
/// (propagation recomputes identically). Branch-free so it vectorises.
fn gelu_row_screen(x: &[f32], y: &[f32], tol: f32) -> bool {
    (x.iter().zip(y)).fold(true, |ok, (&x, &y)| {
        ok & x.is_finite() & y.is_finite() & (y >= GELU_MIN_OUT - tol) & (y <= x.max(0.0) + tol)
    })
}

/// `|dx| ≤ sup|gelu′| · |dy|` element-wise over finite `(x, dy)`.
fn gelu_backward_row_screen(x: &[f32], dy: &[f32], dx: &[f32], tol: f32) -> bool {
    (dx.iter().zip(dy).zip(x)).fold(true, |ok, ((&di, &dyi), &xi)| {
        ok & xi.is_finite() & dyi.is_finite() & (di.abs() <= GELU_GRAD_BOUND * dyi.abs() + tol)
    })
}

/// Screen + heal a GELU output `y` against its preserved input `x`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn verify_gelu(x: &Matrix, y: &mut Matrix, g: &OpGuard) {
    if !g.active() {
        return;
    }
    assert_eq!(
        (x.rows(), x.cols()),
        (y.rows(), y.cols()),
        "verify_gelu: shape mismatch"
    );
    for r in 0..y.rows() {
        g.record_check();
        if gelu_row_screen(x.row(r), y.row(r), g.tol()) {
            continue;
        }
        let reference: Vec<f32> = x.row(r).iter().map(|&v| gelu(v)).collect();
        heal_row_bitwise(y, r, &reference, g);
    }
}

/// Guarded element-wise GELU.
pub fn gelu_matrix_checked(x: &Matrix, g: &OpGuard) -> Matrix {
    let mut y = x.map(gelu);
    verify_gelu(x, &mut y, g);
    y
}

/// Screen + heal a GELU-backward output `dx` against `(x, dy)`.
pub fn verify_gelu_backward(x: &Matrix, dy: &Matrix, dx: &mut Matrix, g: &OpGuard) {
    if !g.active() {
        return;
    }
    for r in 0..dx.rows() {
        g.record_check();
        if gelu_backward_row_screen(x.row(r), dy.row(r), dx.row(r), g.tol()) {
            continue;
        }
        let reference = gelu_backward(&row_matrix(x, r), &row_matrix(dy, r));
        heal_row_bitwise(dx, r, reference.row(0), g);
    }
}

/// Guarded GELU backward; see [`verify_gelu_backward`].
pub fn gelu_backward_checked(x: &Matrix, dy: &Matrix, g: &OpGuard) -> Matrix {
    let mut dx = gelu_backward(x, dy);
    verify_gelu_backward(x, dy, &mut dx, g);
    dx
}

// ---------------------------------------------------------------------------
// residual add / embedding gather
// ---------------------------------------------------------------------------

/// Check one row of an element-wise sum `out = a + b` by computing it
/// again: one branch-free pass ORs together the bit differences between
/// each recomputed `a[i] + b[i]` and `out[i]`, so a single flipped bit in
/// any cell is seen, specials included, with no tolerance. A difference
/// rewrites the row from the recomputation and records one heal. Shared by
/// the residual-add guard and the embedding gather guard (whose rows are
/// `tok[t] + pos[p]`).
///
/// # Panics
/// Panics on length mismatch.
pub fn verify_add(a: &[f32], b: &[f32], out: &mut [f32], g: &OpGuard) {
    if !g.active() {
        return;
    }
    assert_eq!(a.len(), b.len(), "verify_add: length mismatch");
    assert_eq!(a.len(), out.len(), "verify_add: length mismatch");
    g.record_check();
    let diff = (a.iter().zip(b).zip(out.iter())).fold(0, |d, ((&ai, &bi), o)| {
        d | ((ai + bi).to_bits() ^ o.to_bits())
    });
    if diff == 0 {
        return;
    }
    for ((&ai, &bi), oi) in a.iter().zip(b).zip(out.iter_mut()) {
        *oi = ai + bi;
    }
    g.record_heal();
}

/// Guarded residual add `a + b`, each row checked by [`verify_add`].
///
/// # Panics
/// Panics on shape mismatch.
pub fn residual_add_checked(a: &Matrix, b: &Matrix, g: &OpGuard) -> Matrix {
    let mut out = a.add(b);
    if !g.active() {
        return out;
    }
    for r in 0..a.rows() {
        verify_add(a.row(r), b.row(r), out.row_mut(r), g);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::tests::SPECIALS;
    use crate::ops::{gelu_matrix, softmax_rows};
    use crate::rng::TensorRng;

    fn guard() -> OpGuard {
        OpGuard::new(true, 5e-4)
    }

    #[test]
    fn fault_free_softmax_is_bit_identical_and_quiet() {
        let mut rng = TensorRng::seed_from(1);
        let x = rng.normal_matrix(6, 16, 3.0);
        let g = guard();
        let y = softmax_rows_checked(&x, &g);
        let reference = softmax_rows(&x);
        assert_eq!(y.data(), reference.data());
        let s = g.stats();
        assert_eq!(s.checks, 6);
        assert!(s.is_quiet(), "{s:?}");
        assert_eq!(s.heals, 0);
    }

    #[test]
    fn extreme_faults_in_softmax_output_are_detected_and_healed_exactly() {
        let mut rng = TensorRng::seed_from(2);
        let x = rng.normal_matrix(4, 8, 2.0);
        let reference = softmax_rows(&x);
        for fault in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.0e12] {
            let g = guard();
            let mut y = reference.clone();
            y[(2, 5)] = fault;
            verify_softmax_rows(&x, &mut y, &g);
            assert_eq!(y.data(), reference.data(), "fault {fault} not healed");
            assert_eq!(g.stats().detections, 1);
            assert_eq!(g.stats().heals, 1);
        }
    }

    #[test]
    fn poisoned_softmax_input_recomputes_identically_without_detection() {
        // Propagation, not a fault at this op: the NaN row recomputes to
        // the same NaN row, so nothing is detected or healed here.
        let mut x = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.3);
        x[(1, 2)] = f32::NAN;
        let g = guard();
        let y = softmax_rows_checked(&x, &g);
        assert!(y.row(1).iter().all(|v| v.is_nan()));
        assert!(g.stats().is_quiet());
        assert_eq!(g.stats().heals, 0);
    }

    #[test]
    fn fully_masked_softmax_row_passes_the_screen() {
        let x = Matrix::from_vec(1, 3, vec![f32::NEG_INFINITY; 3]);
        let g = guard();
        let y = softmax_rows_checked(&x, &g);
        assert!(crate::float::all_exactly_zero(y.row(0)));
        assert!(g.stats().is_quiet());
    }

    #[test]
    fn inplace_softmax_matches_plain_and_snapshot_free_path() {
        let mut rng = TensorRng::seed_from(3);
        let x = rng.normal_matrix(5, 12, 1.5);
        let mut a = x.clone();
        let g = guard();
        // A clean pass never rebuilds the input, guard on or off.
        softmax_rows_checked_inplace(&mut a, &g, || unreachable!("clean rows"));
        assert_eq!(a.data(), softmax_rows(&x).data());
        assert!(g.stats().is_quiet());
        assert_eq!(g.stats().checks, 5);
        let mut b = x.clone();
        softmax_rows_checked_inplace(&mut b, &OpGuard::off(), || unreachable!("guard off"));
        assert_eq!(b.data(), a.data());
        // A row failing the screen recomputes from the rebuilt input, with
        // the same outcome as the snapshot form (here: propagation, quiet).
        let mut poisoned = x.clone();
        poisoned[(1, 2)] = f32::NAN;
        let mut c = poisoned.clone();
        softmax_rows_checked_inplace(&mut c, &g, || poisoned.clone());
        assert!(c.row(1).iter().all(|v| v.is_nan()));
        assert_eq!(c.row(0), a.row(0));
        assert_eq!((g.stats().checks, g.stats().heals), (10, 0));
    }

    #[test]
    fn softmax_backward_guard_heals_planted_extremes() {
        let mut rng = TensorRng::seed_from(4);
        let y = softmax_rows(&rng.normal_matrix(3, 6, 1.0));
        let dy = rng.normal_matrix(3, 6, 1.0);
        let reference = softmax_rows_backward(&y, &dy);
        let g = guard();
        let clean = softmax_rows_backward_checked(&y, &dy, &g);
        assert_eq!(clean.data(), reference.data());
        assert!(g.stats().is_quiet());

        for fault in [f32::INFINITY, f32::NAN, 4.0e12] {
            let g = guard();
            let mut dx = reference.clone();
            dx[(1, 4)] = fault;
            verify_softmax_backward(&y, &dy, &mut dx, &g);
            assert_eq!(dx.data(), reference.data(), "fault {fault} not healed");
            assert_eq!(g.stats().heals, 1);
        }
    }

    #[test]
    fn layer_norm_guard_is_bit_identical_fault_free() {
        let mut rng = TensorRng::seed_from(5);
        let x = rng.normal_matrix(4, 32, 2.0);
        let gamma = vec![1.1f32; 32];
        let beta = vec![0.2f32; 32];
        let (ref_out, ref_cache) = layer_norm(&x, &gamma, &beta, 1e-5);
        let g = guard();
        let (out, cache) = layer_norm_checked(&x, &gamma, &beta, 1e-5, &g);
        assert_eq!(out.data(), ref_out.data());
        assert_eq!(cache.normalized.data(), ref_cache.normalized.data());
        assert_eq!(cache.mean, ref_cache.mean);
        assert_eq!(cache.inv_std, ref_cache.inv_std);
        assert!(g.stats().is_quiet(), "{:?}", g.stats());
    }

    #[test]
    fn layer_norm_guard_heals_faults_in_output_cache_and_stats() {
        let mut rng = TensorRng::seed_from(11);
        let x = rng.normal_matrix(4, 16, 2.0);
        let gamma = vec![0.9f32; 16];
        let beta = vec![-0.1f32; 16];
        let (ref_out, ref_cache) = layer_norm(&x, &gamma, &beta, 1e-5);
        for fault in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -2.0e11] {
            // Fault in the affine output.
            let g = guard();
            let (mut out, mut cache) = (ref_out.clone(), ref_cache.clone());
            out[(2, 7)] = fault;
            verify_layer_norm(&x, &gamma, &beta, 1e-5, &mut out, &mut cache, &g);
            assert_eq!(out.data(), ref_out.data(), "out fault {fault} not healed");
            assert_eq!(g.stats().heals, 1);

            // Fault in the cached normalised activations.
            let g = guard();
            let (mut out, mut cache) = (ref_out.clone(), ref_cache.clone());
            cache.normalized[(0, 3)] = fault;
            verify_layer_norm(&x, &gamma, &beta, 1e-5, &mut out, &mut cache, &g);
            assert_eq!(
                cache.normalized.data(),
                ref_cache.normalized.data(),
                "cache fault {fault} not healed"
            );
            assert_eq!(g.stats().heals, 1);

            // Fault in the cached row statistics.
            let g = guard();
            let (mut out, mut cache) = (ref_out.clone(), ref_cache.clone());
            cache.inv_std[1] = fault;
            verify_layer_norm(&x, &gamma, &beta, 1e-5, &mut out, &mut cache, &g);
            assert_eq!(
                cache.inv_std, ref_cache.inv_std,
                "stat fault {fault} not healed"
            );
            assert_eq!(g.stats().heals, 1);
        }
    }

    #[test]
    fn layer_norm_backward_guard_heals_injected_grad_faults() {
        let mut rng = TensorRng::seed_from(12);
        let x = rng.normal_matrix(3, 8, 2.0);
        let gamma: Vec<f32> = (0..8).map(|i| 0.5 + 0.1 * i as f32).collect();
        let beta = vec![0.0f32; 8];
        let dy = rng.normal_matrix(3, 8, 1.0);
        let (_, cache) = layer_norm(&x, &gamma, &beta, 1e-5);
        let (ref_dx, ref_dgamma, ref_dbeta) = layer_norm_backward(&dy, &cache, &gamma);

        let g = guard();
        let (dx, dgamma, dbeta) = layer_norm_backward_checked(&dy, &cache, &gamma, &g);
        assert_eq!(dx.data(), ref_dx.data());
        assert_eq!(dgamma, ref_dgamma);
        assert_eq!(dbeta, ref_dbeta);
        assert!(g.stats().is_quiet());

        for fault in [f32::INFINITY, f32::NAN, 9.0e13] {
            let g = guard();
            let mut dx = ref_dx.clone();
            let mut dgamma = ref_dgamma.clone();
            let mut dbeta = ref_dbeta.clone();
            dx[(1, 5)] = fault;
            verify_layer_norm_backward(&dy, &cache, &gamma, &mut dx, &mut dgamma, &mut dbeta, &g);
            assert_eq!(dx.data(), ref_dx.data(), "fault {fault} not healed");
            assert_eq!(g.stats().heals, 1);
        }
    }

    #[test]
    fn gelu_guard_detects_and_heals_planted_extremes() {
        let mut rng = TensorRng::seed_from(6);
        let x = rng.normal_matrix(3, 10, 2.0);
        let reference = gelu_matrix(&x);
        for fault in [f32::INFINITY, f32::NAN, -7.5, 1.0e11] {
            let g = guard();
            let mut y = reference.clone();
            y[(0, 4)] = fault;
            verify_gelu(&x, &mut y, &g);
            assert_eq!(y.data(), reference.data(), "fault {fault} not healed");
            assert_eq!(g.stats().heals, 1);
        }
        // Fault-free: quiet and bit-identical.
        let g = guard();
        let y = gelu_matrix_checked(&x, &g);
        assert_eq!(y.data(), reference.data());
        assert!(g.stats().is_quiet());
    }

    #[test]
    fn gelu_backward_guard_heals_planted_extremes() {
        let mut rng = TensorRng::seed_from(8);
        let x = rng.normal_matrix(3, 8, 1.5);
        let dy = rng.normal_matrix(3, 8, 1.0);
        let reference = gelu_backward(&x, &dy);
        let g = guard();
        let dx = gelu_backward_checked(&x, &dy, &g);
        assert_eq!(dx.data(), reference.data());
        assert!(g.stats().is_quiet());

        for fault in [f32::NEG_INFINITY, f32::NAN, 5.0e10] {
            let g = guard();
            let mut dx = reference.clone();
            dx[(2, 1)] = fault;
            verify_gelu_backward(&x, &dy, &mut dx, &g);
            assert_eq!(dx.data(), reference.data(), "fault {fault} not healed");
            assert_eq!(g.stats().heals, 1);
        }
    }

    #[test]
    fn residual_add_guard_heals_all_extreme_classes() {
        let mut rng = TensorRng::seed_from(9);
        let a = rng.normal_matrix(4, 12, 1.0);
        let b = rng.normal_matrix(4, 12, 1.0);
        let reference = a.add(&b);
        for fault in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 2.0e13] {
            let g = guard();
            let mut out = reference.clone();
            out[(3, 11)] = fault;
            for r in 0..out.rows() {
                let (ar, br) = (a.row(r), b.row(r));
                verify_add(ar, br, out.row_mut(r), &g);
            }
            assert_eq!(out.data(), reference.data(), "fault {fault} not healed");
            assert_eq!(g.stats().heals, 1);
        }
        let g = guard();
        let out = residual_add_checked(&a, &b, &g);
        assert_eq!(out.data(), reference.data());
        assert!(g.stats().is_quiet());
    }

    #[test]
    fn sub_threshold_flip_in_residual_add_is_caught_exactly() {
        // A mid-mantissa flip is far below any extremum screen; the add
        // computed again differs from it in that bit.
        let a = Matrix::full(1, 8, 0.5);
        let b = Matrix::full(1, 8, 0.25);
        let reference = a.add(&b);
        let g = guard();
        let mut out = reference.clone();
        let bits = out[(0, 2)].to_bits() ^ (1 << 18);
        out[(0, 2)] = f32::from_bits(bits);
        verify_add(a.row(0), b.row(0), out.row_mut(0), &g);
        assert_eq!(out.data(), reference.data());
        assert_eq!(g.stats().heals, 1);
    }

    /// The screens as they were before the lane-ordered sums: sequential,
    /// early-exit. Kept as the reference the branch-free forms are held to.
    mod sequential {
        use super::super::{GELU_GRAD_BOUND, GELU_MIN_OUT};

        pub fn softmax(row: &[f32], tol: f32) -> bool {
            let mut sum = 0.0f32;
            for &v in row {
                if !(0.0..=1.0).contains(&v) {
                    return false;
                }
                sum += v;
            }
            (sum - 1.0).abs() <= tol || crate::float::all_exactly_zero(row)
        }

        /// `(Σ, Σ|·|, Σ²)` in sequential `f64`, `None` at a non-finite element.
        fn sums(row: &[f32]) -> Option<(f64, f64, f64)> {
            row.iter().try_fold((0.0, 0.0, 0.0), |(s, a, q), &v| {
                let f = f64::from(v);
                v.is_finite().then_some((s + f, a + f.abs(), q + f * f))
            })
        }

        pub fn zero_rowsum(row: &[f32], tol: f32) -> bool {
            sums(row).is_some_and(|(s, a, _)| s.abs() <= f64::from(tol) * (1.0 + a))
        }

        pub fn layer_norm(x: &[f32], st: (f32, f32), n: &[f32], out: &[f32], tol: f32) -> bool {
            let (d, tol) = (n.len() as f64, f64::from(tol));
            sums(n)
                .is_some_and(|(s, _, q)| (s / d).abs() <= tol && (q / d - 1.0).abs() <= 100.0 * tol)
                && (x.iter().zip(n).zip(out)).all(|((&xi, &ni), &o)| {
                    ((xi - st.0) * st.1).to_bits() == ni.to_bits()
                        && (ni * 1.1 + 0.2).to_bits() == o.to_bits()
                })
        }

        pub fn gelu(x: &[f32], y: &[f32], tol: f32) -> bool {
            x.iter().zip(y).all(|(&x, &y)| {
                x.is_finite() && y.is_finite() && y >= GELU_MIN_OUT - tol && y <= x.max(0.0) + tol
            })
        }

        pub fn gelu_backward(x: &[f32], dy: &[f32], dx: &[f32], tol: f32) -> bool {
            dx.iter().zip(dy).zip(x).all(|((&di, &dyi), &xi)| {
                xi.is_finite() && dyi.is_finite() && di.abs() <= GELU_GRAD_BOUND * dyi.abs() + tol
            })
        }
    }

    proptest::proptest! {
        /// Every screen returns its sequential predecessor's verdict: on a
        /// clean row, with an extreme planted in the output, and with a
        /// mid-mantissa flip.
        #[test]
        fn branch_free_screens_return_the_sequential_verdicts(
            cols in 1usize..70,
            fault in 0usize..7,
            at in 0usize..70,
            seed in 0u64..100_000,
        ) {
            let tol = 5e-4f32;
            let mut rng = TensorRng::seed_from(seed);
            let plant = |m: &Matrix| {
                let mut row = m.row(0).to_vec();
                let v = &mut row[at % cols];
                *v = match fault {
                    0 => *v,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => f32::NAN,
                    4 => 3.0e12,
                    5 => -7.5,
                    _ => f32::from_bits(v.to_bits() ^ (1 << 18)),
                };
                row
            };
            let x = rng.normal_matrix(1, cols, 2.0);
            let dy = rng.normal_matrix(1, cols, 1.0);

            let y = softmax_rows(&x);
            let p = plant(&y);
            proptest::prop_assert_eq!(softmax_row_screen(&p, tol), sequential::softmax(&p, tol));
            let dx = plant(&softmax_rows_backward(&y, &dy));
            proptest::prop_assert_eq!(zero_rowsum_screen(&dx, tol), sequential::zero_rowsum(&dx, tol));

            let (gamma, beta) = (vec![1.1f32; cols], vec![0.2f32; cols]);
            let (out, cache) = layer_norm(&x, &gamma, &beta, 1e-5);
            let st = (cache.mean[0], cache.inv_std[0]);
            for (n, o) in [
                (plant(&cache.normalized), out.row(0).to_vec()),
                (cache.normalized.row(0).to_vec(), plant(&out)),
            ] {
                proptest::prop_assert_eq!(
                    layer_norm_row_screen(x.row(0), st.0, st.1, &n, &o, &gamma, &beta, tol),
                    sequential::layer_norm(x.row(0), st, &n, &o, tol)
                );
            }

            let y = plant(&gelu_matrix(&x));
            proptest::prop_assert_eq!(
                gelu_row_screen(x.row(0), &y, tol),
                sequential::gelu(x.row(0), &y, tol)
            );
            let dx = plant(&gelu_backward(&x, &dy));
            proptest::prop_assert_eq!(
                gelu_backward_row_screen(x.row(0), dy.row(0), &dx, tol),
                sequential::gelu_backward(x.row(0), dy.row(0), &dx, tol)
            );
        }

        /// Any single bit of any cell of an add's output, in the residual
        /// add and in an embedding-shaped gather (`tok[t] + pos[p]`), gives
        /// one detection and one heal back to the bits of `a + b`; the
        /// fault-free output is quiet. Inputs carry IEEE specials.
        #[test]
        fn any_single_bit_flip_in_an_add_is_healed_exactly(
            cols in 1usize..71,
            row in 0usize..4,
            at in 0usize..70,
            bit in 0u32..32,
            plant in 0usize..6,
            seed in 0u64..100_000,
        ) {
            let mut rng = TensorRng::seed_from(seed);
            let operand = |rng: &mut TensorRng| {
                let mut m = rng.normal_matrix(4, cols, 2.0);
                for _ in 0..plant {
                    let cell = rng.index(4 * cols);
                    m.data_mut()[cell] = SPECIALS[rng.index(SPECIALS.len())];
                }
                m
            };
            let (a, b) = (operand(&mut rng), operand(&mut rng));
            let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let g = guard();
            let sum = residual_add_checked(&a, &b, &g);
            proptest::prop_assert_eq!(bits(sum.data()), bits(a.add(&b).data()));
            proptest::prop_assert_eq!((g.stats().checks, g.stats().heals), (4, 0));
            proptest::prop_assert!(g.stats().is_quiet());
            let residual: Vec<_> = (0..4).map(|r| (a.row(r), b.row(r))).collect();
            // Token ids drawn with repeats; positions in order.
            let gather: Vec<_> = (0..4).map(|r| (a.row(rng.index(4)), b.row(r))).collect();
            for rows in [residual, gather] {
                let clean: Vec<Vec<f32>> = rows
                    .iter()
                    .map(|(x, y)| x.iter().zip(*y).map(|(&u, &v)| u + v).collect())
                    .collect();
                for flip in [false, true] {
                    let mut out = clean.clone();
                    if flip {
                        let v = &mut out[row][at % cols];
                        *v = f32::from_bits(v.to_bits() ^ (1 << bit));
                    }
                    let g = guard();
                    for ((x, y), o) in rows.iter().zip(&mut out) {
                        verify_add(x, y, o, &g);
                    }
                    let s = g.stats();
                    let n = usize::from(flip);
                    proptest::prop_assert_eq!((s.checks, s.detections, s.heals), (4, n, n));
                    proptest::prop_assert_eq!(bits(&out.concat()), bits(&clean.concat()));
                }
            }
        }
    }

    #[test]
    fn inactive_guard_is_a_pass_through() {
        let mut rng = TensorRng::seed_from(10);
        let x = rng.normal_matrix(2, 6, 1.0);
        let g = OpGuard::off();
        let y = softmax_rows_checked(&x, &g);
        assert_eq!(y.data(), softmax_rows(&x).data());
        assert_eq!(g.stats(), GuardStats::default());
        assert_eq!(g.take_stats(), GuardStats::default());
    }

    #[test]
    fn stats_drain() {
        let g = guard();
        g.record_check();
        g.record_heal();
        g.record_unrecovered();
        let total = g.take_stats();
        assert_eq!(total.checks, 1);
        assert_eq!(total.detections, 2);
        assert_eq!(total.heals, 1);
        assert_eq!(total.unrecovered, 1);
        assert!(!total.is_quiet());
        assert_eq!(g.stats(), GuardStats::default());
    }
}
