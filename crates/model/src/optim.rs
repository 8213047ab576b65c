//! AdamW optimizer: the moment state of every parameter, with ridden
//! checksums over it.
//!
//! The optimizer owns its state. One [`Slot`] per parameter, in the
//! model's visit order, holds the `m`/`v` moments and their at-rest
//! digests; the slots are created, zeroed, by the first
//! [`AdamW::step`] (or by a checkpoint restore), so a model that is only
//! served never allocates them. [`AdamW::step`] reads a training step's
//! gradient accumulator ([`Grads`]) and leaves it as it was; the trainer
//! then drops it, so no gradient outlives the step.
//!
//! The moments are the only training state that persists *between* steps,
//! so a particle strike while they sit at rest is invisible to every
//! forward/backward guard and silently steers every later update. The
//! digests close that hole: each row of each moment matrix carries a
//! digest over the `f32` bit patterns `b_j` ([`lanes::Digest`]) — the
//! wrapping `u64` sums `Σ b_j` and `Σ (j+1)·b_j`, the XOR `⊕ b_j`, and a
//! detection-only check term, a position-keyed sum of squares — captured
//! after a guarded step and re-derived before the next one, never
//! persisted. An unguarded step drops its slot's digests (they would
//! describe moments it has since moved), so the next guarded step only
//! captures. The digest is exact integer arithmetic, so a mismatch is always
//! a genuine corruption (zero false positives), a NaN or INF moment digests
//! like any other bit pattern, and a single changed cell is located
//! exactly: it moves the sums by `d` and `(j+1)·d`, so `j + 1` is their
//! quotient, with no remainder. The XOR delta restores the original bits,
//! and the whole row digest then gates the restore. The check term is what
//! sees a multi-cell change the linear sums cannot — a balanced run of
//! flips with zero sum, zero first moment and an even XOR — and sends it
//! to the column axis.
//!
//! A second, *column* digest axis turns single-axis localisation into 2D:
//! the mismatched rows × mismatched columns form a suspect rectangle, and
//! region faults that defeat the per-row single-flip model heal through
//! the other axis — every cell of a corrupted row span is the only suspect
//! in its column, so the column XOR delta restores it bit-exactly, and a
//! full 2×2 rectangle is solved exactly from each row's sum/weighted-sum
//! deltas. Corruption beyond the rectangle solvers is surfaced as
//! `unrecovered`; every heal, from any path, is accepted only when the
//! affected rows *and* columns re-digest to their stored bits.
//!
//! One row-major capture sweep per moment matrix, after each guarded update
//! and in [`AdamW::load`], fills both axes: each row is digested whole and
//! added into per-column running accumulators.

use crate::param::{Grads, HasParams, Param};
use attn_tensor::{lanes, lanes::Digest, Matrix, OpGuard};

/// `(Σ, Σw)` of `stored − live`, as the signed change they carry.
fn delta(live: &Digest, stored: &Digest) -> (i64, i64) {
    let d = |a: u64, b: u64| a.wrapping_sub(b) as i64;
    (d(stored.sum, live.sum), d(stored.wsum, live.wsum))
}

/// Column digest of column `c`: the linear sums of [`lanes::digest`]
/// walked down the rows, weights `r + 1`; `check` stays 0.
fn digest_col(mat: &Matrix, c: usize) -> Digest {
    let mut d = Digest::default();
    for r in 0..mat.rows() {
        let b = mat[(r, c)].to_bits();
        lanes::digest_cell(&mut d.sum, &mut d.wsum, &mut d.xor, b, (r + 1) as u32);
    }
    d
}

/// Locate-and-restore a single corrupted cell; `false` when no single
/// change explains the digest (multi-cell corruption).
fn try_heal_row(stored: &Digest, row: &mut [f32]) -> bool {
    let live = lanes::digest(row);
    let (dsum, dwsum) = delta(&live, stored);
    // One change `d` moves the sums by exactly `d` and `(j+1)·d`.
    if dwsum.checked_rem(dsum) != Some(0) {
        return false;
    }
    let j = usize::try_from((dwsum / dsum).wrapping_sub(1)).ok();
    let Some(j) = j.filter(|&j| j < row.len()) else {
        return false;
    };
    let old = row[j];
    row[j] = f32::from_bits(old.to_bits() ^ stored.xor ^ live.xor);
    if lanes::digest(row) == *stored {
        true
    } else {
        row[j] = old;
        false
    }
}

/// Heal a full 2×2 suspect rectangle `{r0,r1} × {c0,c1}`.
///
/// Each row's two cell changes `e₀`, `e₁` are its two unknowns, and its
/// `(Δs, Δw)` pair gives them exactly: `Δs = e₀ + e₁` and
/// `Δw = (c₀+1)·e₀ + (c₁+1)·e₁`. Returns `false` when they have no exact
/// solution. The caller keeps the rectangle only when every suspect row
/// and column then re-digests to its stored bits, and otherwise reverts
/// the rows.
fn heal_2x2(stored: &MomentDigests, mat: &mut Matrix, rs: [usize; 2], cs: [usize; 2]) -> bool {
    let [c0, c1] = cs;
    let (w0, span) = ((c0 + 1) as i64, c1 as i64 - c0 as i64);
    for r in rs {
        let (ds, dw) = delta(&lanes::digest(mat.row(r)), &stored.rows[r]);
        let num = dw.wrapping_sub(w0.wrapping_mul(ds));
        if num.checked_rem(span) != Some(0) {
            return false;
        }
        let e1 = num / span;
        for (c, e) in [(c0, ds.wrapping_sub(e1)), (c1, e1)] {
            let bits = i64::from(mat[(r, c)].to_bits()).checked_add(e);
            let Some(bits) = bits.and_then(|b| u32::try_from(b).ok()) else {
                return false;
            };
            mat[(r, c)] = f32::from_bits(bits);
        }
    }
    true
}

/// 2D region heal over the suspect rectangle `bad_rows × bad_cols`.
///
/// Peeling pass first: any still-mismatched column intersecting exactly
/// one mismatched row holds that row's only corruption in this column, so
/// its column XOR delta restores the cell (and symmetrically for rows) —
/// this alone covers every single-row region (burst, stuck row) and every
/// L-shaped residue peeling exposes. What survives peeling as an exact
/// 2×2 rectangle goes to [`heal_2x2`]. Returns `true` only when every
/// suspect row and column re-digests to its stored bits.
fn heal_region(
    stored: &MomentDigests,
    mat: &mut Matrix,
    bad_rows: &[usize],
    bad_cols: &[usize],
) -> bool {
    let budget = bad_rows.len() * bad_cols.len() + 2;
    for _ in 0..budget {
        let rs: Vec<usize> = bad_rows
            .iter()
            .copied()
            .filter(|&r| lanes::digest(mat.row(r)) != stored.rows[r])
            .collect();
        let cs: Vec<usize> = bad_cols
            .iter()
            .copied()
            .filter(|&c| digest_col(mat, c) != stored.col(c))
            .collect();
        if rs.is_empty() && cs.is_empty() {
            return true;
        }
        if rs.is_empty() || cs.is_empty() {
            return false; // one axis clean, the other not: cancelling corruption
        }
        let mut progress = false;
        for &c in &cs {
            if rs.len() == 1 {
                let r = rs[0];
                let delta = stored.col_xor[c] ^ digest_col(mat, c).xor;
                if delta != 0 {
                    let v = mat[(r, c)];
                    mat[(r, c)] = f32::from_bits(v.to_bits() ^ delta);
                    progress = true;
                }
            }
        }
        if !progress && cs.len() == 1 {
            let c = cs[0];
            for &r in &rs {
                let delta = stored.rows[r].xor ^ lanes::digest(mat.row(r)).xor;
                if delta != 0 {
                    let v = mat[(r, c)];
                    mat[(r, c)] = f32::from_bits(v.to_bits() ^ delta);
                    progress = true;
                }
            }
        }
        if progress {
            continue;
        }
        if rs.len() == 2 && cs.len() == 2 {
            return heal_2x2(stored, mat, [rs[0], rs[1]], [cs[0], cs[1]])
                && bad_rows
                    .iter()
                    .all(|&r| lanes::digest(mat.row(r)) == stored.rows[r])
                && bad_cols
                    .iter()
                    .all(|&c| digest_col(mat, c) == stored.col(c));
        }
        return false;
    }
    false
}

fn verify_moment(stored: &MomentDigests, mat: &mut Matrix, g: &OpGuard) {
    let mut bad_rows: Vec<usize> = Vec::new();
    for (r, expected) in stored.rows.iter().enumerate().take(mat.rows()) {
        g.record_check();
        if lanes::digest(mat.row(r)) != *expected {
            bad_rows.push(r);
        }
    }
    if bad_rows.is_empty() {
        return;
    }
    // Single-flip fast path, row by row — the 0D fault model.
    let mut region_rows: Vec<usize> = Vec::new();
    for &r in &bad_rows {
        if try_heal_row(&stored.rows[r], mat.row_mut(r)) {
            g.record_heal();
        } else {
            region_rows.push(r);
        }
    }
    if region_rows.is_empty() {
        return;
    }
    // 2D path: intersect with the column axis and heal the rectangle.
    let bad_cols: Vec<usize> = (0..mat.cols())
        .filter(|&c| digest_col(mat, c) != stored.col(c))
        .collect();
    let snapshot: Vec<(usize, Vec<f32>)> = region_rows
        .iter()
        .map(|&r| (r, mat.row(r).to_vec()))
        .collect();
    if !bad_cols.is_empty() && heal_region(stored, mat, &region_rows, &bad_cols) {
        for _ in &region_rows {
            g.record_heal();
        }
    } else {
        for (r, row) in snapshot {
            mat.row_mut(r).copy_from_slice(&row);
        }
        for _ in &region_rows {
            g.record_unrecovered();
        }
    }
}

/// Both digest axes of one moment matrix: a [`Digest`] per row, and the
/// linear sums per column held as running accumulators.
#[derive(Debug, Clone, Default, PartialEq)]
struct MomentDigests {
    rows: Vec<Digest>,
    col_sum: Vec<u64>,
    col_wsum: Vec<u64>,
    col_xor: Vec<u32>,
}

impl MomentDigests {
    /// Re-derive both axes from `mat` in one row-major sweep, reusing the
    /// vectors: each row is digested whole, then added into the column
    /// accumulators ([`lanes::digest_columns`], [`digest_col`]'s sums).
    fn capture(&mut self, mat: &Matrix) {
        self.rows.clear();
        self.rows.reserve(mat.rows());
        for col in [&mut self.col_sum, &mut self.col_wsum] {
            col.clear();
            col.resize(mat.cols(), 0);
        }
        self.col_xor.clear();
        self.col_xor.resize(mat.cols(), 0);
        for r in 0..mat.rows() {
            let row = mat.row(r);
            self.rows.push(lanes::digest(row));
            let (s, ws, x) = (&mut self.col_sum, &mut self.col_wsum, &mut self.col_xor);
            lanes::digest_columns(row, (r + 1) as u32, s, ws, x);
        }
    }

    /// Column `c`'s digest, as [`digest_col`] derives it.
    fn col(&self, c: usize) -> Digest {
        Digest {
            sum: self.col_sum[c],
            wsum: self.col_wsum[c],
            xor: self.col_xor[c],
            check: 0,
        }
    }
}

/// One parameter's optimizer state: its AdamW moments and, after a guarded
/// step, their at-rest digests.
///
/// Writing `m` or `v` directly is what a fault does: the next guarded step
/// verifies them against the digests captured after the last guarded step,
/// and heals what differs.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// First moment.
    pub m: Matrix,
    /// Second moment.
    pub v: Matrix,
    /// Digests of `m` and `v`, in that order, as the last guarded step left
    /// them; `None` before any guarded step and after an unguarded one.
    digests: Option<[MomentDigests; 2]>,
}

impl Slot {
    fn zeroed(rows: usize, cols: usize) -> Self {
        Self {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            digests: None,
        }
    }
}

/// AdamW with decoupled weight decay (the fine-tuning default of the
/// paper's HuggingFace setup).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamW {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Step counter (for bias correction).
    pub t: u64,
    /// One slot per parameter, in the model's visit order; empty until the
    /// first step or restore.
    slots: Vec<Slot>,
}

impl AdamW {
    /// Standard fine-tuning hyper-parameters.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            t: 0,
            slots: Vec::new(),
        }
    }

    /// The per-parameter state, in the model's visit order; empty until
    /// the first step or restore (a never-stepped optimizer's moments are
    /// zero).
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Mutable access to the slots. Writes bypass the digests, as a fault
    /// would; [`Self::load`] is the way to replace the state.
    pub fn slots_mut(&mut self) -> &mut [Slot] {
        &mut self.slots
    }

    /// Visit every parameter of `model` with its slot, in visit order,
    /// creating one zeroed slot per parameter if this optimizer has none
    /// yet.
    ///
    /// # Panics
    /// Panics when a slot's `m` or `v` is not its parameter's shape, so a
    /// verify only reads moments of the shape its digests were captured from.
    fn visit_slots(&mut self, model: &mut dyn HasParams, f: &mut dyn FnMut(&mut Param, &mut Slot)) {
        if self.slots.is_empty() {
            let slots = &mut self.slots;
            model.visit_params(&mut |p| {
                slots.push(Slot::zeroed(p.value.rows(), p.value.cols()));
            });
        }
        let mut slots = self.slots.iter_mut();
        model.visit_params(&mut |p| {
            let slot = slots.next().expect("one optimizer slot per parameter");
            let shape = |x: &Matrix| (x.rows(), x.cols());
            assert_eq!(
                [shape(&slot.m), shape(&slot.v)],
                [shape(&p.value); 2],
                "optimizer slot shape for `{}`",
                p.name
            );
            f(p, slot);
        });
    }

    /// Apply one optimizer step over every parameter of `model` with the
    /// gradients folded into `grads`, which it reads and leaves as they
    /// were. A parameter without a gradient slot takes its update with a
    /// zero gradient. Under an active `g` the moment state is guarded: each
    /// slot's at-rest digests are verified (and corruption healed) before
    /// the update reads its moments, and one capture sweep per moment
    /// re-derives both digest axes into the same slot after it — one visit
    /// per parameter. A slot with no digests (the first guarded step, or
    /// the first after unguarded ones) only captures. An unprotected step
    /// is [`OpGuard::off`], not another method; it drops the digests its
    /// update makes stale.
    ///
    /// # Panics
    /// Panics if `grads` holds a name the model does not own (a misspelled
    /// parameter name in a backward pass).
    pub fn step(&mut self, model: &mut dyn HasParams, grads: &Grads, g: &OpGuard) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let update = |value: &mut [f32], grad: Option<&Matrix>, slot: &mut Slot| {
            let n = value.len();
            let (m, v) = (slot.m.data_mut(), slot.v.data_mut());
            let mut adam = |i: usize, g: f32| {
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                value[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * value[i]);
            };
            match grad {
                Some(grad) => {
                    assert_eq!(grad.len(), n, "gradient shape");
                    for (i, &g) in grad.data().iter().enumerate() {
                        adam(i, g);
                    }
                }
                None => (0..n).for_each(|i| adam(i, 0.0)),
            }
        };
        let mut read = 0usize;
        self.visit_slots(model, &mut |p, slot| {
            let grad = grads.get(p.name.as_str());
            read += usize::from(grad.is_some());
            if let Some([dm, dv]) = slot.digests.as_ref().filter(|_| g.active()) {
                verify_moment(dm, &mut slot.m, g);
                verify_moment(dv, &mut slot.v, g);
            }
            update(p.value.data_mut(), grad, slot);
            if g.active() {
                let [dm, dv] = slot.digests.get_or_insert_with(Default::default);
                dm.capture(&slot.m);
                dv.capture(&slot.v);
            } else {
                slot.digests = None;
            }
        });
        assert_eq!(
            read,
            grads.len(),
            "gradients for parameters the model does not own, among {:?}",
            grads.names().collect::<Vec<_>>()
        );
    }

    /// Replace the optimizer state with a saved one: the step counter
    /// becomes `t`, and `fill` writes each parameter's value and moments,
    /// in `model`'s visit order (a never-stepped optimizer gets its slots
    /// here, zeroed). Slots that hold digests re-capture both axes from the
    /// loaded moments, in the step's capture sweep: otherwise the next
    /// guarded step would verify the loaded state against the replaced one
    /// and "heal" it back. Slots without digests stay without, and the next
    /// guarded step captures.
    pub fn load(
        &mut self,
        model: &mut dyn HasParams,
        t: u64,
        fill: &mut dyn FnMut(&mut Param, &mut Slot),
    ) {
        self.t = t;
        self.visit_slots(model, &mut |p, slot| {
            fill(p, slot);
            if let Some([dm, dv]) = &mut slot.digests {
                dm.capture(&slot.m);
                dv.capture(&slot.v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_tensor::Matrix;

    struct One {
        p: Param,
    }
    impl HasParams for One {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
    }

    fn one(value: Matrix) -> One {
        One {
            p: Param::new("w", value),
        }
    }

    /// A gradient accumulator holding `g` for `"w"`.
    fn grad(g: Matrix) -> Grads {
        let mut grads = Grads::new();
        grads.accumulate("w", &g);
        grads
    }

    /// The one slot's moments.
    fn moments(opt: &AdamW) -> (&Matrix, &Matrix) {
        (&opt.slots()[0].m, &opt.slots()[0].v)
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut m = one(Matrix::full(1, 1, 1.0));
        let g = grad(Matrix::full(1, 1, 1.0));
        let mut opt = AdamW::new(0.1);
        opt.weight_decay = 0.0;
        opt.step(&mut m, &g, &OpGuard::off());
        assert!(m.p.value[(0, 0)] < 1.0);
    }

    #[test]
    fn first_step_size_is_about_lr() {
        // With bias correction, |Δ| ≈ lr on the first step regardless of
        // gradient scale.
        for &g in &[1e-3f32, 1.0, 1e3] {
            let mut m = one(Matrix::full(1, 1, 0.0));
            let mut opt = AdamW::new(0.01);
            opt.weight_decay = 0.0;
            opt.step(&mut m, &grad(Matrix::full(1, 1, g)), &OpGuard::off());
            let delta = m.p.value[(0, 0)].abs();
            assert!((delta - 0.01).abs() < 1e-3, "g={g}: delta {delta}");
        }
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut m = one(Matrix::full(1, 1, 2.0));
        let mut opt = AdamW::new(0.1);
        opt.weight_decay = 0.1;
        opt.step(&mut m, &Grads::new(), &OpGuard::off());
        assert!(m.p.value[(0, 0)] < 2.0);
    }

    #[test]
    fn a_missing_gradient_steps_like_a_zero_one() {
        let mut a = one(Matrix::from_vec(1, 2, vec![2.0, -1.0]));
        let mut b = one(Matrix::from_vec(1, 2, vec![2.0, -1.0]));
        let (mut oa, mut ob) = (AdamW::new(0.1), AdamW::new(0.1));
        oa.step(&mut a, &Grads::new(), &OpGuard::off());
        ob.step(&mut b, &grad(Matrix::zeros(1, 2)), &OpGuard::off());
        assert_eq!(a.p, b.p);
        assert_eq!(oa, ob);
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn step_rejects_gradients_for_unknown_names() {
        let mut g = Grads::new();
        g.accumulate("nope", &Matrix::zeros(1, 1));
        AdamW::new(0.1).step(&mut one(Matrix::zeros(1, 1)), &g, &OpGuard::off());
    }

    #[test]
    fn slots_are_created_by_the_first_step() {
        let mut m = one(Matrix::zeros(2, 3));
        let mut opt = AdamW::new(0.1);
        assert!(opt.slots().is_empty(), "a new optimizer holds no moments");
        opt.step(&mut m, &Grads::new(), &OpGuard::off());
        assert_eq!(opt.slots().len(), 1);
        assert_eq!((opt.slots()[0].m.rows(), opt.slots()[0].v.cols()), (2, 3));
    }

    #[test]
    fn inf_gradient_poisons_parameters() {
        // This is the mechanism behind the paper's non-trainable states: an
        // INF gradient drives Adam's moments to INF and the update to NaN.
        let mut m = one(Matrix::full(1, 1, 1.0));
        let mut opt = AdamW::new(0.01);
        let g = grad(Matrix::full(1, 1, f32::INFINITY));
        opt.step(&mut m, &g, &OpGuard::off());
        assert!(!m.p.value[(0, 0)].is_finite() || m.p.value[(0, 0)].is_nan());
    }

    #[test]
    fn merged_buffers_step_like_their_summed_gradient() {
        let mut a = one(Matrix::full(1, 1, 1.0));
        let mut b = one(Matrix::full(1, 1, 1.0));
        let mut g0 = grad(Matrix::full(1, 1, 0.25));
        let mut g1 = grad(Matrix::full(1, 1, 0.5));

        let mut oa = AdamW::new(0.01);
        let mut acc = Grads::new();
        g0.merge_into(&mut acc);
        g1.merge_into(&mut acc);
        oa.step(&mut a, &acc, &OpGuard::off());

        let mut ob = AdamW::new(0.01);
        ob.step(
            &mut b,
            &grad(Matrix::full(1, 1, 0.25 + 0.5)),
            &OpGuard::off(),
        );

        assert_eq!(a.p.value[(0, 0)].to_bits(), b.p.value[(0, 0)].to_bits());
    }

    fn batch(vals: &[f32]) -> One {
        one(Matrix::from_vec(2, vals.len() / 2, vals.to_vec()))
    }

    fn grads_of(vals: &[f32]) -> Grads {
        grad(Matrix::from_vec(2, vals.len() / 2, vals.to_vec()))
    }

    const W0: [f32; 8] = [1.0, -2.0, 0.5, 3.0, -0.25, 4.0, 0.125, -1.5];
    const G1: [f32; 8] = [0.3, -0.1, 0.7, 0.2, -0.4, 0.6, -0.9, 0.05];
    const G2: [f32; 8] = [-0.2, 0.8, 0.1, -0.6, 0.35, -0.15, 0.45, -0.7];

    #[test]
    fn checked_step_is_bit_identical_to_plain_and_quiet() {
        let mut plain = batch(&W0);
        let mut checked = batch(&W0);
        let mut op = AdamW::new(0.01);
        let mut oc = AdamW::new(0.01);
        let g = OpGuard::new(true, 5e-4);
        for gr in [&G1, &G2] {
            op.step(&mut plain, &grads_of(gr), &OpGuard::off());
            oc.step(&mut checked, &grads_of(gr), &g);
        }
        assert_eq!(plain.p.value, checked.p.value);
        assert_eq!(moments(&op), moments(&oc));
        let s = g.take_stats();
        assert!(s.is_quiet(), "fault-free moments must stay quiet: {s:?}");
        // Second step verified 2 rows × 2 moment matrices.
        assert_eq!(s.checks, 4);
    }

    #[test]
    fn single_cell_moment_corruption_is_healed_exactly() {
        for fault in [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            3.0e38,
            -3.0e38,
            7.25e-3, // sub-threshold magnitude: digest compare still catches it
        ] {
            for second_moment in [false, true] {
                let mut clean = batch(&W0);
                let mut faulty = batch(&W0);
                let mut oc = AdamW::new(0.01);
                let mut of = AdamW::new(0.01);
                let gq = OpGuard::new(true, 5e-4);
                oc.step(&mut clean, &grads_of(&G1), &gq);
                oc.step(&mut clean, &grads_of(&G2), &gq);
                assert!(gq.take_stats().is_quiet());

                let gf = OpGuard::new(true, 5e-4);
                of.step(&mut faulty, &grads_of(&G1), &gf);
                let slot = &mut of.slots_mut()[0];
                let target = if second_moment {
                    &mut slot.v
                } else {
                    &mut slot.m
                };
                target[(1, 2)] = fault;
                of.step(&mut faulty, &grads_of(&G2), &gf);
                let s = gf.take_stats();
                assert_eq!(s.detections, 1, "fault {fault} (v={second_moment})");
                assert_eq!(s.heals, 1, "fault {fault} (v={second_moment})");
                assert_eq!(s.unrecovered, 0);
                assert_eq!(
                    faulty.p.value, clean.p.value,
                    "fault {fault}: corrected step must be bit-identical"
                );
                assert_eq!(moments(&of), moments(&oc));
            }
        }
    }

    #[test]
    fn first_checked_step_only_captures() {
        let mut m = batch(&W0);
        let mut opt = AdamW::new(0.01);
        let g = OpGuard::new(true, 5e-4);
        opt.step(&mut m, &grads_of(&G1), &g);
        // Nothing captured before the first step → nothing verified.
        assert_eq!(g.take_stats().checks, 0);
    }

    #[test]
    fn unguarded_step_drops_the_digests_it_makes_stale() {
        // guarded → unguarded → guarded: the third step must not verify
        // the moments against digests of moments the second step moved.
        let mut m = batch(&W0);
        let mut twin = batch(&W0);
        let (mut opt, mut ot) = (AdamW::new(0.01), AdamW::new(0.01));
        let on = OpGuard::new(true, 5e-4);
        for (gr, guard) in [(&G1, &on), (&G2, &OpGuard::off()), (&G1, &on)] {
            opt.step(&mut m, &grads_of(gr), guard);
            ot.step(&mut twin, &grads_of(gr), &OpGuard::off());
        }
        let s = on.take_stats();
        assert_eq!(s.checks, 0, "the third step only captures: {s:?}");
        assert!(s.is_quiet(), "{s:?}");
        assert_eq!(m.p.value, twin.p.value);
        assert_eq!(moments(&opt), moments(&ot));
    }

    #[test]
    fn load_recaptures_digests_only_where_they_were_held() {
        let mut m = batch(&W0);
        let mut opt = AdamW::new(0.01);
        let g = OpGuard::new(true, 5e-4);
        opt.step(&mut m, &grads_of(&G1), &g);
        opt.load(&mut m, 9, &mut |_, slot| slot.m.data_mut().fill(0.5));
        assert_eq!(opt.t, 9);
        opt.step(&mut m, &grads_of(&G2), &g);
        let s = g.take_stats();
        assert_eq!(s.checks, 4, "the loaded moments are verified");
        assert!(s.is_quiet(), "and they are the state, not a fault: {s:?}");

        // A never-stepped optimizer gets zeroed slots and no digests.
        let mut fresh = AdamW::new(0.01);
        fresh.load(&mut m, 3, &mut |_, _| {});
        assert_eq!(fresh.slots().len(), 1);
        assert!(attn_tensor::float::all_exactly_zero(
            fresh.slots()[0].v.data()
        ));
        fresh.step(&mut m, &grads_of(&G2), &g);
        assert_eq!(g.take_stats().checks, 0);
    }

    /// A `rows × cols` matrix cycling through `vals` (`W0`, `G1` and `G2`
    /// themselves at 2 × 4).
    fn tiled(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| vals[i % vals.len()]).collect(),
        )
    }

    /// Run the two-step checked flow at `shape` twice — once clean, once
    /// with `corrupt` applied to the first moment between the steps — and
    /// return the guard stats plus both final states. With `reload`, both
    /// optimizers load halved moments between the steps, before the
    /// corruption, so the heal runs on the digests `load` captured.
    fn region_fault_flow(
        (rows, cols): (usize, usize),
        reload: bool,
        corrupt: impl FnOnce(&mut Matrix),
    ) -> ((One, AdamW), (One, AdamW), attn_tensor::GuardStats) {
        let gs = [grad(tiled(rows, cols, &G1)), grad(tiled(rows, cols, &G2))];
        let reload = |opt: &mut AdamW, model: &mut One| {
            if reload {
                opt.load(model, opt.t, &mut |_, slot| {
                    for x in slot.m.data_mut().iter_mut().chain(slot.v.data_mut()) {
                        *x *= 0.5;
                    }
                });
            }
        };
        let mut clean = one(tiled(rows, cols, &W0));
        let mut faulty = one(tiled(rows, cols, &W0));
        let mut oc = AdamW::new(0.01);
        let mut of = AdamW::new(0.01);
        let gq = OpGuard::new(true, 5e-4);
        oc.step(&mut clean, &gs[0], &gq);
        reload(&mut oc, &mut clean);
        oc.step(&mut clean, &gs[1], &gq);
        assert!(gq.take_stats().is_quiet());

        let gf = OpGuard::new(true, 5e-4);
        of.step(&mut faulty, &gs[0], &gf);
        reload(&mut of, &mut faulty);
        corrupt(&mut of.slots_mut()[0].m);
        of.step(&mut faulty, &gs[1], &gf);
        ((clean, oc), (faulty, of), gf.take_stats())
    }

    /// The flow healed `rows` corrupted rows and left the trajectory
    /// bit-identical to the clean one.
    fn assert_healed(flow: ((One, AdamW), (One, AdamW), attn_tensor::GuardStats), rows: usize) {
        let (clean, faulty, s) = flow;
        assert_eq!(s.detections, rows, "{s:?}");
        assert_eq!(s.heals, rows, "{s:?}");
        assert_eq!(s.unrecovered, 0);
        assert_eq!(
            faulty.0.p.value, clean.0.p.value,
            "healed step must be bit-identical"
        );
        assert_eq!(moments(&faulty.1), moments(&clean.1));
    }

    #[test]
    fn capture_sweep_matches_the_column_walk_bit_for_bit() {
        // Across the widths around the old 64-column block boundary, and
        // with one digest reused from shape to shape.
        let mut d = MomentDigests::default();
        let mut rng = attn_tensor::rng::TensorRng::seed_from(48);
        for cols in [1usize, 63, 64, 65, 130] {
            for rows in 1..=5 {
                let mut mat = rng.normal_matrix(rows, cols, 1.0);
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
                for (k, x) in specials.into_iter().enumerate() {
                    mat[(k % rows, (17 * k + rows) % cols)] = x;
                }
                d.capture(&mat);
                assert_eq!(d.rows.len(), rows);
                for r in 0..rows {
                    assert_eq!(
                        d.rows[r],
                        lanes::digest(mat.row(r)),
                        "{rows}×{cols} row {r}"
                    );
                }
                assert_eq!(d.col_sum.len(), cols);
                for c in 0..cols {
                    assert_eq!(d.col(c), digest_col(&mat, c), "{rows}×{cols} col {c}");
                }
            }
        }
    }

    #[test]
    fn row_region_across_column_64_heals_bit_exactly() {
        let flow = region_fault_flow((3, 130), false, |m| {
            m[(1, 63)] += 1.0;
            m[(1, 64)] = f32::NEG_INFINITY;
        });
        assert_healed(flow, 1);
    }

    #[test]
    fn region_fault_after_load_heals_via_the_reloaded_column_digests() {
        let flow = region_fault_flow((2, 4), true, |m| {
            m[(0, 0)] += 1.0;
            m[(0, 3)] -= 2.0;
        });
        assert_healed(flow, 1);
    }

    #[test]
    #[should_panic(expected = "optimizer slot shape")]
    fn step_rejects_a_second_moment_of_another_shape() {
        let mut m = batch(&W0);
        let mut opt = AdamW::new(0.01);
        let g = OpGuard::new(true, 5e-4);
        opt.step(&mut m, &grads_of(&G1), &g);
        opt.slots_mut()[0].v = Matrix::zeros(2, 5);
        opt.step(&mut m, &grads_of(&G2), &g);
    }

    #[test]
    fn multi_cell_row_region_heals_via_column_digests() {
        // Two distinct cells of one row defeat the per-row single-flip
        // model, but each sits alone in its column: the column XOR deltas
        // restore both bit-exactly.
        let flow = region_fault_flow((2, 4), false, |m| {
            m[(0, 0)] += 1.0;
            m[(0, 3)] -= 2.0;
        });
        assert_healed(flow, 1);
    }

    #[test]
    fn rectangular_2x2_region_heals_bit_exactly() {
        // A full 2×2 rectangle — two cells in each of two rows, sharing
        // columns — is underdetermined for XOR alone; each row's exact
        // sum/weighted-sum deltas solve its two cells, and the re-digest
        // gate accepts all four.
        let flow = region_fault_flow((2, 4), false, |m| {
            m[(0, 1)] = f32::INFINITY;
            m[(0, 3)] += 0.75;
            m[(1, 1)] = f32::NAN;
            m[(1, 3)] *= -3.0;
        });
        assert_healed(flow, 2);
    }

    /// Two guarded steps, `first` then `G2` tiled to its shape, with
    /// `corrupt` writing the slot between them. Returns the final value,
    /// `m` and `v` as bits (a poisoned value is NaN, and NaN ≠ NaN) and the
    /// guard stats.
    fn guarded_pair(
        first: &Matrix,
        corrupt: impl FnOnce(&mut Slot),
    ) -> ([Vec<u32>; 3], attn_tensor::GuardStats) {
        let (rows, cols) = (first.rows(), first.cols());
        let mut model = one(tiled(rows, cols, &W0));
        let mut opt = AdamW::new(0.01);
        let g = OpGuard::new(true, 5e-4);
        opt.step(&mut model, &grad(first.clone()), &g);
        corrupt(&mut opt.slots_mut()[0]);
        opt.step(&mut model, &grad(tiled(rows, cols, &G2)), &g);
        let slot = &opt.slots()[0];
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect();
        ([&model.p.value, &slot.m, &slot.v].map(bits), g.take_stats())
    }

    /// [`guarded_pair`] clean and corrupted: the clean run stays quiet, the
    /// corrupted one ends bit-equal to it. Returns the corrupted run's stats.
    fn heal_twin(first: &Matrix, corrupt: impl FnOnce(&mut Slot)) -> attn_tensor::GuardStats {
        let (clean, quiet) = guarded_pair(first, |_| {});
        assert!(quiet.is_quiet(), "{quiet:?}");
        let (healed, s) = guarded_pair(first, corrupt);
        assert_eq!(healed, clean, "healed state must be bit-equal: {s:?}");
        s
    }

    #[test]
    fn rectangle_in_rows_with_a_non_finite_moment_heals() {
        // An INF gradient legitimately drives m[0][0] and v[0][0] to INF;
        // the rectangle beside it still solves exactly.
        let mut first = tiled(2, 4, &G1);
        first[(0, 0)] = f32::INFINITY;
        let s = heal_twin(&first, |slot| {
            for (r, c) in [(0, 1), (0, 3), (1, 1), (1, 3)] {
                slot.m[(r, c)] += (2 + r + c) as f32;
            }
        });
        assert_eq!((s.detections, s.heals, s.unrecovered), (2, 2, 0));
    }

    #[test]
    fn balanced_burst_that_cancels_every_linear_sum_is_detected_and_healed() {
        // A burst of 4 exponent flips over cells whose bit 30 reads
        // 0, 1, 1, 0 (|m| < 2, ≥ 2, ≥ 2, < 2) moves the bit patterns by
        // +2³⁰, −2³⁰, −2³⁰, +2³⁰: the sum, the weighted sum and the XOR all
        // come out unchanged. Only the check term sees it.
        let mut first = tiled(2, 4, &G1);
        (first[(0, 1)], first[(0, 2)]) = (30.0, 30.0);
        let s = heal_twin(&first, |slot| {
            let bit30 = slot.m.row(0).iter().map(|x| x.to_bits() >> 30 & 1);
            assert_eq!(bit30.collect::<Vec<_>>(), [0, 1, 1, 0]);
            let live = lanes::digest(slot.m.row(0));
            attn_fault::FaultKind::Burst { len: 4 }.strike(slot.m.row_mut(0), 0);
            let hit = lanes::digest(slot.m.row(0));
            assert_eq!(delta(&hit, &live), (0, 0));
            assert_eq!(hit.xor, live.xor);
        });
        assert_eq!((s.detections, s.heals, s.unrecovered), (1, 1, 0));
    }

    proptest::proptest! {
        #[test]
        fn any_single_bit_flip_is_located_and_healed_exactly(
            rows in 1usize..6,
            cols in 1usize..131,
            cell in 0usize..650,
            second_moment in 0usize..2,
            bit in 0u32..32,
        ) {
            let (r, c) = ((cell / cols) % rows, cell % cols);
            let flip = |x: &mut f32| *x = f32::from_bits(x.to_bits() ^ (1 << bit));
            let s = heal_twin(&tiled(rows, cols, &G1), |slot| {
                flip(&mut [&mut slot.m, &mut slot.v][second_moment][(r, c)]);
            });
            proptest::prop_assert_eq!((s.detections, s.heals, s.unrecovered), (1, 1, 0));
            // The row digest alone locates it: the column axis is not needed.
            let clean = tiled(1, cols, &W0);
            let mut row = clean.data().to_vec();
            flip(&mut row[c]);
            proptest::prop_assert!(try_heal_row(&lanes::digest(clean.data()), &mut row));
            proptest::prop_assert_eq!(Matrix::from_vec(1, cols, row), clean);
        }
    }

    #[test]
    fn region_beyond_2x2_is_unrecovered_and_reverted() {
        // A 2×3 region exceeds the rectangle solvers; the guard must
        // surface it instead of guessing, leaving the rows untouched.
        let (_, faulty, s) = region_fault_flow((2, 4), false, |m| {
            for r in 0..2 {
                for c in [0usize, 1, 3] {
                    m[(r, c)] += (1 + r + c) as f32;
                }
            }
        });
        assert_eq!(s.detections, 2);
        assert_eq!(s.heals, 0);
        assert_eq!(s.unrecovered, 2);
        assert!(moments(&faulty.1).0.all_finite());
    }

    #[test]
    fn poisoned_moments_are_propagation_not_faults() {
        // An INF gradient legitimately drives the moments non-finite; the
        // captured digests must track that state without false alarms.
        let mut m = batch(&W0);
        let mut opt = AdamW::new(0.01);
        let g = OpGuard::new(true, 5e-4);
        opt.step(&mut m, &grad(Matrix::full(2, 4, f32::INFINITY)), &g);
        opt.step(&mut m, &grads_of(&G1), &g);
        let s = g.take_stats();
        assert_eq!(s.detections, 0, "NaN moments re-digest identically");
        assert!(s.checks > 0);
    }

    #[test]
    fn quadratic_convergence() {
        // Minimise (w - 3)²: AdamW should approach 3.
        let mut m = one(Matrix::full(1, 1, 0.0));
        let mut opt = AdamW::new(0.05);
        opt.weight_decay = 0.0;
        for _ in 0..500 {
            let w = m.p.value[(0, 0)];
            opt.step(
                &mut m,
                &grad(Matrix::full(1, 1, 2.0 * (w - 3.0))),
                &OpGuard::off(),
            );
        }
        assert!((m.p.value[(0, 0)] - 3.0).abs() < 0.1);
    }
}
