//! Binary serialisation of model + optimizer state.
//!
//! Wire format (little-endian throughout):
//!
//! ```text
//! magic   b"ATNC"
//! version u32        (currently 1)
//! t       u64        optimizer step counter
//! nparams u64
//! repeat nparams times:
//!   name_len u32, name utf-8 bytes
//!   rows u64, cols u64
//!   value f32 × rows·cols
//!   m     f32 × rows·cols      (Adam first moment)
//!   v     f32 × rows·cols      (Adam second moment)
//! ```
//!
//! Moments are included because restarting fine-tuning without optimizer
//! state changes the trajectory — the paper's CR baseline checkpoints the
//! full training state. The values come from the model and `t` and the
//! moments from the optimizer ([`AdamW::slots`]), which holds them; an
//! optimizer that has never stepped writes zero moments, and a restore into
//! one creates its slots.

use attn_model::optim::AdamW;
use attn_model::param::HasParams;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: &[u8; 4] = b"ATNC";
const VERSION: u32 = 1;

/// Deserialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Bad magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Buffer ended early.
    Truncated,
    /// Parameter name/shape mismatch against the receiving model.
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad checkpoint magic"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapshotError::Truncated => write!(f, "checkpoint truncated"),
            SnapshotError::Mismatch(s) => write!(f, "checkpoint/model mismatch: {s}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialise the full training state — `model`'s values, `optim`'s step
/// counter and moments — encoding straight from where they live.
pub fn snapshot_model(model: &mut dyn HasParams, optim: &AdamW) -> Bytes {
    let mut nparams = 0u64;
    let mut payload = 0usize;
    model.visit_params(&mut |p| {
        nparams += 1;
        payload += ENTRY_HEADER + p.name.len() + 3 * 4 * p.len();
    });
    let mut buf = BytesMut::with_capacity(HEADER + payload);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(optim.t);
    buf.put_u64_le(nparams);
    let mut slots = optim.slots().iter();
    model.visit_params(&mut |p| {
        buf.put_u32_le(p.name.len() as u32);
        buf.put_slice(p.name.as_bytes());
        buf.put_u64_le(p.value.rows() as u64);
        buf.put_u64_le(p.value.cols() as u64);
        let put = |buf: &mut BytesMut, xs: &[f32]| xs.iter().for_each(|&x| buf.put_f32_le(x));
        put(&mut buf, p.value.data());
        match slots.next() {
            Some(slot) => {
                put(&mut buf, slot.m.data());
                put(&mut buf, slot.v.data());
            }
            None => (0..2 * p.len()).for_each(|_| buf.put_f32_le(0.0)),
        }
    });
    buf.freeze()
}

/// Bytes before the first entry: magic, version, `t`, `nparams`.
const HEADER: usize = 4 + 4 + 8 + 8;
/// Fixed bytes of one entry besides its name and data: `name_len`, `rows`,
/// `cols`.
const ENTRY_HEADER: usize = 4 + 8 + 8;

/// Restore training state from [`snapshot_model`] output: the values into
/// `model`, the step counter and moments into `optim` (through
/// [`AdamW::load`], which re-captures the moment digests it holds). Returns
/// the restored step counter.
///
/// Parameters are matched by visit order and verified by name and shape, so
/// a checkpoint can only be restored into the model that produced it. The
/// restore takes two passes over the model: the first checks the count,
/// every name, shape and length against the buffer, the second decodes
/// straight into the existing matrices — so a failed restore mutates
/// nothing, and a successful one allocates only the slots of an optimizer
/// that has never stepped.
pub fn restore_model(
    model: &mut dyn HasParams,
    optim: &mut AdamW,
    data: &[u8],
) -> Result<u64, SnapshotError> {
    let mut buf = data;
    if buf.remaining() < HEADER {
        return Err(SnapshotError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let t = buf.get_u64_le();
    let nparams = buf.get_u64_le();
    // Every entry takes at least its fixed header, so a count the rest of
    // the buffer cannot hold is a truncation, whatever the model says.
    if nparams > (buf.remaining() / ENTRY_HEADER) as u64 {
        return Err(SnapshotError::Truncated);
    }
    let entries = buf;

    // Pass 1: validate every entry against the model; touch nothing.
    let mut idx = 0u64;
    let mut err: Option<SnapshotError> = None;
    model.visit_params(&mut |p| {
        if err.is_some() {
            return;
        }
        if idx == nparams {
            err = Some(SnapshotError::Mismatch(
                "too few params in checkpoint".into(),
            ));
            return;
        }
        match read_entry_header(&mut buf) {
            Err(e) => err = Some(e),
            Ok((name, rows, cols)) => {
                if name != p.name.as_bytes() {
                    err = Some(SnapshotError::Mismatch(format!(
                        "param {idx}: checkpoint has `{}`, model has `{}`",
                        String::from_utf8_lossy(name),
                        p.name
                    )));
                } else if (rows, cols) != (p.value.rows() as u64, p.value.cols() as u64) {
                    err = Some(SnapshotError::Mismatch(format!(
                        "shape mismatch for `{}`",
                        p.name
                    )));
                } else if buf.remaining() < 3 * 4 * p.len() {
                    err = Some(SnapshotError::Truncated);
                } else {
                    buf.advance(3 * 4 * p.len());
                    idx += 1;
                }
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    if idx != nparams {
        return Err(SnapshotError::Mismatch(
            "checkpoint has more params than model".into(),
        ));
    }

    // Pass 2: the layout is known good; decode in place.
    let mut buf = entries;
    optim.load(model, t, &mut |p, slot| {
        let name_len = buf.get_u32_le() as usize;
        buf.advance(name_len + 16);
        for mat in [&mut p.value, &mut slot.m, &mut slot.v] {
            for x in mat.data_mut() {
                *x = buf.get_f32_le();
            }
        }
    });
    Ok(t)
}

/// Read one entry's `name_len`, name and shape, leaving `buf` at its data.
/// The shape is returned as stored: comparing it with the receiving
/// parameter's is the caller's check, and a shape whose element count
/// overflows cannot match one.
fn read_entry_header<'a>(buf: &mut &'a [u8]) -> Result<(&'a [u8], u64, u64), SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let name_len = buf.get_u32_le() as usize;
    if buf.remaining() < name_len.saturating_add(16) {
        return Err(SnapshotError::Truncated);
    }
    let (name, rest) = buf.split_at(name_len);
    *buf = rest;
    let rows = buf.get_u64_le();
    let cols = buf.get_u64_le();
    Ok((name, rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_model::param::Param;
    use attn_tensor::Matrix;

    struct Toy {
        a: Param,
        b: Param,
    }
    impl HasParams for Toy {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    /// An optimizer at step `t` holding `a`'s moments filled with `(m, v)`
    /// and `b`'s with `(0, b_v)`.
    fn optim_for(t: &mut Toy, step: u64, (m, v): (f32, f32), b_v: f32) -> AdamW {
        let mut opt = AdamW::new(1e-3);
        opt.load(t, step, &mut |p, slot| {
            let (m, v) = if p.name == "a" { (m, v) } else { (0.0, b_v) };
            slot.m.data_mut().fill(m);
            slot.v.data_mut().fill(v);
        });
        opt
    }

    fn toy() -> (Toy, AdamW) {
        let mut t = Toy {
            a: Param::new("a", Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32)),
            b: Param::new("b", Matrix::full(1, 4, -1.0)),
        };
        let opt = optim_for(&mut t, 0, (0.5, 0.25), 0.0);
        (t, opt)
    }

    #[test]
    fn roundtrip_restores_values_and_moments() {
        let (mut t, mut opt) = toy();
        opt.t = 17;
        let snap = snapshot_model(&mut t, &opt);
        // Corrupt everything.
        t.a.value.data_mut().fill(9.0);
        t.b.value.data_mut().fill(9.0);
        let mut opt = optim_for(&mut t, 3, (9.0, 9.0), 9.0);
        let step = restore_model(&mut t, &mut opt, &snap).unwrap();
        assert_eq!(step, 17);
        assert_eq!(opt.t, 17);
        assert_eq!(t.a.value[(1, 2)], 5.0);
        assert_eq!(opt.slots()[0].m[(0, 0)], 0.5);
        assert_eq!(opt.slots()[0].v[(0, 0)], 0.25);
        assert_eq!(opt.slots()[1].v[(0, 0)], 0.0);
        assert_eq!(t.b.value[(0, 0)], -1.0);
    }

    #[test]
    fn a_never_stepped_optimizer_saves_zero_moments_and_restores_into_slots() {
        let (mut t, opt) = toy();
        let zeroed = optim_for(&mut t, 0, (0.0, 0.0), 0.0);
        assert_eq!(
            snapshot_model(&mut t, &AdamW::new(1e-3)),
            snapshot_model(&mut t, &zeroed)
        );
        let snap = snapshot_model(&mut t, &opt);
        let mut fresh = AdamW::new(1e-3);
        assert!(fresh.slots().is_empty());
        assert_eq!(restore_model(&mut t, &mut fresh, &snap), Ok(0));
        assert_eq!(fresh.slots(), opt.slots());
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut t, mut opt) = toy();
        let mut snap = snapshot_model(&mut t, &opt).to_vec();
        snap[0] = b'X';
        assert_eq!(
            restore_model(&mut t, &mut opt, &snap),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn truncation_rejected_without_partial_apply() {
        let (mut t, mut opt) = toy();
        let snap = snapshot_model(&mut t, &opt);
        let before = (t.a.value.clone(), opt.clone());
        let cut = &snap[..snap.len() - 7];
        assert_eq!(
            restore_model(&mut t, &mut opt, cut),
            Err(SnapshotError::Truncated)
        );
        assert_eq!((t.a.value, opt), before, "failed restore must not mutate");
    }

    #[test]
    fn name_mismatch_rejected() {
        let (mut t, opt) = toy();
        let snap = snapshot_model(&mut t, &opt);
        let (mut other, mut opt) = toy();
        other.a.name = "renamed".into();
        assert!(matches!(
            restore_model(&mut other, &mut opt, &snap),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    /// The wire format of a two-parameter model, byte for byte.
    #[rustfmt::skip]
    const GOLDEN: [u8; 102] = [
        b'A', b'T', b'N', b'C', // magic
        1, 0, 0, 0, // version
        7, 0, 0, 0, 0, 0, 0, 0, // t
        2, 0, 0, 0, 0, 0, 0, 0, // nparams
        1, 0, 0, 0, b'a', // name
        1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // rows, cols
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, // value 1.0, -2.0
        0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00, 0x3f, // m 0.5, 0.5
        0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x80, 0x3e, // v 0.25, 0.25
        1, 0, 0, 0, b'b', // name
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // rows, cols
        0x00, 0x00, 0x80, 0xbf, // value -1.0
        0x00, 0x00, 0x00, 0x00, // m 0.0
        0x00, 0x00, 0x40, 0x40, // v 3.0
    ];

    fn golden_toy() -> (Toy, AdamW) {
        let mut t = Toy {
            a: Param::new("a", Matrix::from_vec(1, 2, vec![1.0, -2.0])),
            b: Param::new("b", Matrix::full(1, 1, -1.0)),
        };
        let opt = optim_for(&mut t, 7, (0.5, 0.25), 3.0);
        (t, opt)
    }

    #[test]
    fn snapshot_bytes_match_the_golden_encoding() {
        let (mut t, opt) = golden_toy();
        assert_eq!(&snapshot_model(&mut t, &opt)[..], &GOLDEN[..]);
        let mut zeroed = Toy {
            a: Param::zeros("a", 1, 2),
            b: Param::zeros("b", 1, 1),
        };
        let mut fresh = AdamW::new(1e-3);
        assert_eq!(restore_model(&mut zeroed, &mut fresh, &GOLDEN), Ok(7));
        assert_eq!(zeroed.a, t.a);
        assert_eq!(zeroed.b, t.b);
        assert_eq!(fresh.slots(), opt.slots());
    }

    #[test]
    fn huge_param_count_is_an_error_not_a_panic() {
        let (mut t, mut opt) = toy();
        let mut snap = snapshot_model(&mut t, &opt).to_vec();
        let before = t.a.value.clone();
        for n in [u64::MAX, u64::MAX / 2, 3] {
            snap[16..24].copy_from_slice(&n.to_le_bytes());
            assert!(
                restore_model(&mut t, &mut opt, &snap).is_err(),
                "nparams = {n}"
            );
        }
        snap[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            restore_model(&mut t, &mut opt, &snap),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(t.a.value, before, "failed restore must not mutate");
    }

    #[test]
    fn overflowing_shape_is_an_error_not_a_panic() {
        // The first entry's rows and cols sit after the 24-byte header,
        // `name_len` and the one-byte name "a".
        let (mut t, mut opt) = toy();
        let mut snap = snapshot_model(&mut t, &opt).to_vec();
        let before = t.a.value.clone();
        for (rows, cols) in [(1u64 << 32, 1u64 << 32), (u64::MAX, 2), (2, 3 << 61)] {
            snap[29..37].copy_from_slice(&rows.to_le_bytes());
            snap[37..45].copy_from_slice(&cols.to_le_bytes());
            assert!(
                matches!(
                    restore_model(&mut t, &mut opt, &snap),
                    Err(SnapshotError::Mismatch(_))
                ),
                "{rows} × {cols}"
            );
        }
        assert_eq!(t.a.value, before, "failed restore must not mutate");
    }

    #[test]
    fn count_mismatch_rejected_without_partial_apply() {
        let (mut t, mut opt) = toy();
        let mut snap = snapshot_model(&mut t, &opt).to_vec();
        snap[16..24].copy_from_slice(&1u64.to_le_bytes());
        t.a.value.data_mut().fill(9.0);
        let before = t.a.value.clone();
        assert!(matches!(
            restore_model(&mut t, &mut opt, &snap),
            Err(SnapshotError::Mismatch(_))
        ));
        assert_eq!(t.a.value, before, "failed restore must not mutate");
    }

    #[test]
    fn snapshot_size_is_deterministic() {
        let (mut t, mut opt) = toy();
        opt.t = 1;
        let s1 = snapshot_model(&mut t, &opt);
        let s2 = snapshot_model(&mut t, &opt);
        assert_eq!(s1, s2);
        // 24-byte header + entries.
        assert!(s1.len() > 24 + 3 * 4 * (6 + 4));
    }
}
