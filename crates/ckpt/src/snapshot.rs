//! Binary serialisation of model + optimizer state, streamed.
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
//!
//! Neither direction holds a buffer the size of the snapshot: every matrix
//! is encoded into a [`Write`] and decoded from a [`Read`] through one
//! fixed stack chunk. [`read_snapshot`] takes two passes over the stream.
//! The first reads the header and each entry's name and shape, checks
//! against the stream's length that each data run is all there, seeks over
//! the data, and requires the stream to end at the last entry — so every
//! format error is found before anything is written. The second rewinds and
//! decodes straight into the existing matrices.

use attn_model::optim::{AdamW, Slot};
use attn_model::param::{HasParams, Param};
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 4] = b"ATNC";
const VERSION: u32 = 1;
/// Bytes before the first entry: magic, version, `t`, `nparams`.
const HEADER: u64 = 4 + 4 + 8 + 8;
/// Fixed bytes of one entry besides its name and data: `name_len`, `rows`,
/// `cols`.
const ENTRY_HEADER: u64 = 4 + 8 + 8;
/// Bytes of the stack chunk every matrix is encoded and decoded through.
const CHUNK: usize = 4096;

/// Deserialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Bad magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The stream ended early.
    Truncated,
    /// The stream goes on past the last entry.
    Trailing,
    /// Parameter name/shape mismatch against the receiving model.
    Mismatch(String),
    /// The stream failed to read or seek. The one error [`read_snapshot`]
    /// can return after it has started writing.
    Io(io::ErrorKind),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad checkpoint magic"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapshotError::Truncated => write!(f, "checkpoint truncated"),
            SnapshotError::Trailing => write!(f, "checkpoint has bytes after its last entry"),
            SnapshotError::Mismatch(s) => write!(f, "checkpoint/model mismatch: {s}"),
            SnapshotError::Io(kind) => write!(f, "checkpoint read failed: {kind}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e.kind())
    }
}

/// Serialise the full training state — `model`'s values, `optim`'s step
/// counter and moments — into `w`, encoding straight from where they live;
/// returns the bytes written. The headers go out a few bytes per write and
/// the data 4 KiB per write, so an unbuffered writer (a `File`) wants a
/// `BufWriter` in front.
pub fn write_snapshot(
    model: &mut dyn HasParams,
    optim: &AdamW,
    w: &mut impl Write,
) -> io::Result<u64> {
    let mut nparams = 0u64;
    let mut bytes = HEADER;
    model.visit_params(&mut |p| {
        nparams += 1;
        bytes += ENTRY_HEADER + p.name.len() as u64 + 3 * 4 * p.len() as u64;
    });
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&optim.t.to_le_bytes())?;
    w.write_all(&nparams.to_le_bytes())?;
    let mut chunk = [0u8; CHUNK];
    let mut slots = optim.slots().iter();
    let mut written = Ok(());
    model.visit_params(&mut |p| {
        if written.is_ok() {
            written = write_entry(w, &mut chunk, p, slots.next());
        }
    });
    written.map(|()| bytes)
}

/// Write one entry: its header, then the values and the moments (zeros for
/// a parameter without a slot).
fn write_entry(
    w: &mut impl Write,
    chunk: &mut [u8; CHUNK],
    p: &Param,
    slot: Option<&Slot>,
) -> io::Result<()> {
    w.write_all(&(p.name.len() as u32).to_le_bytes())?;
    w.write_all(p.name.as_bytes())?;
    w.write_all(&(p.value.rows() as u64).to_le_bytes())?;
    w.write_all(&(p.value.cols() as u64).to_le_bytes())?;
    write_f32s(w, chunk, p.value.data())?;
    match slot {
        Some(slot) => {
            write_f32s(w, chunk, slot.m.data())?;
            write_f32s(w, chunk, slot.v.data())
        }
        None => io::copy(&mut io::repeat(0).take(2 * 4 * p.len() as u64), w).map(drop),
    }
}

fn write_f32s(w: &mut impl Write, chunk: &mut [u8; CHUNK], xs: &[f32]) -> io::Result<()> {
    for part in xs.chunks(CHUNK / 4) {
        for (b, x) in chunk.chunks_exact_mut(4).zip(part) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&chunk[..4 * part.len()])?;
    }
    Ok(())
}

fn read_f32s(r: &mut impl Read, chunk: &mut [u8; CHUNK], xs: &mut [f32]) -> io::Result<()> {
    for part in xs.chunks_mut(CHUNK / 4) {
        let bytes = &mut chunk[..4 * part.len()];
        r.read_exact(bytes)?;
        for (x, b) in part.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    Ok(())
}

fn read_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Restore training state from [`write_snapshot`] output, which fills `r`
/// from its start to its end: the values into `model`, the step counter and
/// moments into `optim` (through [`AdamW::load`], which re-captures the
/// moment digests it holds). Returns the restored step counter.
///
/// Parameters are matched by visit order and verified by name and shape, so
/// a checkpoint can only be restored into the model that produced it. The
/// restore takes two passes over the model: the first checks the count,
/// every name, shape and length against the stream, and that nothing
/// follows the last entry; the second decodes straight into the existing
/// matrices. A format error therefore mutates nothing, and a successful
/// restore allocates only one parameter name's worth of bytes and the slots
/// of an optimizer that has never stepped.
///
/// # Errors
/// [`SnapshotError::Io`] is the one error that can come from the second
/// pass — the device failing on bytes the first pass found present — and
/// then the state is partly written: restore the trainer again before it
/// trains.
pub fn read_snapshot(
    model: &mut dyn HasParams,
    optim: &mut AdamW,
    r: &mut (impl Read + Seek),
) -> Result<u64, SnapshotError> {
    let end = r.seek(SeekFrom::End(0))?;
    r.rewind()?;
    let mut left = end;
    if left < HEADER {
        return Err(SnapshotError::Truncated);
    }
    left -= HEADER;
    if read_array(r)? != *MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(read_array(r)?);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let t = u64::from_le_bytes(read_array(r)?);
    let nparams = u64::from_le_bytes(read_array(r)?);
    // Every entry takes at least its fixed header, so a count the rest of
    // the stream cannot hold is a truncation, whatever the model says.
    if nparams > left / ENTRY_HEADER {
        return Err(SnapshotError::Truncated);
    }

    // Pass 1: validate every entry against the model; touch nothing.
    let mut idx = 0u64;
    let mut name = Vec::new();
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
        match check_entry(r, end, &mut left, p, idx, &mut name) {
            Ok(()) => idx += 1,
            Err(e) => err = Some(e),
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
    if left != 0 {
        return Err(SnapshotError::Trailing);
    }

    // Pass 2: the layout is known good; decode in place.
    r.seek(SeekFrom::Start(HEADER))?;
    let mut chunk = [0u8; CHUNK];
    let mut failed: Option<io::Error> = None;
    optim.load(model, t, &mut |p, slot| {
        if failed.is_none() {
            failed = decode_entry(r, &mut chunk, p, slot).err();
        }
    });
    match failed {
        Some(e) => Err(e.into()),
        None => Ok(t),
    }
}

/// Read one entry's header, check its name and shape against `p` and its
/// data run against the `left` bytes before `end`, and seek over the data.
/// The shape is compared as stored, so one whose element count overflows
/// cannot match.
fn check_entry(
    r: &mut (impl Read + Seek),
    end: u64,
    left: &mut u64,
    p: &Param,
    idx: u64,
    name: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    if *left < 4 {
        return Err(SnapshotError::Truncated);
    }
    let name_len = u64::from(u32::from_le_bytes(read_array(r)?));
    if *left - 4 < name_len + 16 {
        return Err(SnapshotError::Truncated);
    }
    *left -= 4 + name_len + 16;
    if name_len != p.name.len() as u64 {
        return Err(SnapshotError::Mismatch(format!(
            "param {idx}: checkpoint has a {name_len}-byte name, model has `{}`",
            p.name
        )));
    }
    name.resize(p.name.len(), 0);
    r.read_exact(name)?;
    if name.as_slice() != p.name.as_bytes() {
        return Err(SnapshotError::Mismatch(format!(
            "param {idx}: checkpoint has `{}`, model has `{}`",
            String::from_utf8_lossy(name),
            p.name
        )));
    }
    let rows = u64::from_le_bytes(read_array(r)?);
    let cols = u64::from_le_bytes(read_array(r)?);
    if (rows, cols) != (p.value.rows() as u64, p.value.cols() as u64) {
        return Err(SnapshotError::Mismatch(format!(
            "shape mismatch for `{}`",
            p.name
        )));
    }
    let data = 3 * 4 * p.len() as u64;
    if *left < data {
        return Err(SnapshotError::Truncated);
    }
    *left -= data;
    r.seek(SeekFrom::Start(end - *left))?;
    Ok(())
}

/// Skip one entry's header (pass 1 checked it) and decode its values and
/// moments into `p` and `slot`.
fn decode_entry(
    r: &mut (impl Read + Seek),
    chunk: &mut [u8; CHUNK],
    p: &mut Param,
    slot: &mut Slot,
) -> io::Result<()> {
    r.seek(SeekFrom::Current(ENTRY_HEADER as i64 + p.name.len() as i64))?;
    for mat in [&mut p.value, &mut slot.m, &mut slot.v] {
        read_f32s(r, chunk, mat.data_mut())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_tensor::Matrix;
    use std::io::Cursor;

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

    /// [`write_snapshot`] into memory; the count it returns is the length.
    fn encode(model: &mut dyn HasParams, optim: &AdamW) -> Vec<u8> {
        let mut bytes = Vec::new();
        let n = write_snapshot(model, optim, &mut bytes).unwrap();
        assert_eq!(n, bytes.len() as u64);
        bytes
    }

    /// [`read_snapshot`] from memory.
    fn decode(
        model: &mut dyn HasParams,
        optim: &mut AdamW,
        data: &[u8],
    ) -> Result<u64, SnapshotError> {
        read_snapshot(model, optim, &mut Cursor::new(data))
    }

    #[test]
    fn roundtrip_restores_values_and_moments() {
        let (mut t, mut opt) = toy();
        opt.t = 17;
        let snap = encode(&mut t, &opt);
        // Corrupt everything.
        t.a.value.data_mut().fill(9.0);
        t.b.value.data_mut().fill(9.0);
        let mut opt = optim_for(&mut t, 3, (9.0, 9.0), 9.0);
        let step = decode(&mut t, &mut opt, &snap).unwrap();
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
        assert_eq!(encode(&mut t, &AdamW::new(1e-3)), encode(&mut t, &zeroed));
        let snap = encode(&mut t, &opt);
        let mut fresh = AdamW::new(1e-3);
        assert!(fresh.slots().is_empty());
        assert_eq!(decode(&mut t, &mut fresh, &snap), Ok(0));
        assert_eq!(fresh.slots(), opt.slots());
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut t, mut opt) = toy();
        let mut snap = encode(&mut t, &opt);
        snap[0] = b'X';
        assert_eq!(
            decode(&mut t, &mut opt, &snap),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn truncation_rejected_without_partial_apply() {
        let (mut t, mut opt) = toy();
        let snap = encode(&mut t, &opt);
        let before = (t.a.value.clone(), opt.clone());
        let cut = &snap[..snap.len() - 7];
        assert_eq!(decode(&mut t, &mut opt, cut), Err(SnapshotError::Truncated));
        assert_eq!((t.a.value, opt), before, "failed restore must not mutate");
    }

    #[test]
    fn trailing_bytes_rejected_without_partial_apply() {
        let (mut t, opt) = toy();
        let mut snap = encode(&mut t, &opt);
        snap.push(0);
        t.a.value.data_mut().fill(9.0);
        let mut opt = optim_for(&mut t, 3, (9.0, 9.0), 9.0);
        let before = (t.a.value.clone(), opt.clone());
        assert_eq!(
            decode(&mut t, &mut opt, &snap),
            Err(SnapshotError::Trailing)
        );
        assert_eq!((t.a.value, opt), before, "failed restore must not mutate");
    }

    /// A stream over `data` whose reads fail once `budget` bytes have been
    /// read, as a device that dies mid-restore.
    struct FailingAfter<'a> {
        data: Cursor<&'a [u8]>,
        budget: usize,
    }
    impl Read for FailingAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if buf.len() > self.budget {
                return Err(io::Error::other("device failed"));
            }
            let n = self.data.read(buf)?;
            self.budget -= n;
            Ok(n)
        }
    }
    impl Seek for FailingAfter<'_> {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.data.seek(pos)
        }
    }

    #[test]
    fn a_read_error_in_the_second_pass_is_an_error_and_a_restore_again_heals() {
        let (mut t, opt) = toy();
        let snap = encode(&mut t, &opt);
        let want = (t.a.value.clone(), t.b.value.clone(), opt.clone());
        t.a.value.data_mut().fill(9.0);
        t.b.value.data_mut().fill(9.0);
        let mut opt = optim_for(&mut t, 3, (9.0, 9.0), 9.0);
        // Pass 1 reads the header and both entry headers ("a" and "b" are
        // one-byte names); pass 2 then reads `a`'s six values and fails on
        // its first moment.
        let budget = (HEADER + 2 * (ENTRY_HEADER + 1)) as usize + 4 * 6;
        let mut dying = FailingAfter {
            data: Cursor::new(&snap[..]),
            budget,
        };
        assert_eq!(
            read_snapshot(&mut t, &mut opt, &mut dying),
            Err(SnapshotError::Io(io::ErrorKind::Other))
        );
        assert_eq!(t.a.value, want.0, "pass 2 had written `a`'s values");
        assert_eq!(t.b.value[(0, 0)], 9.0, "and nothing after them");
        assert_eq!(decode(&mut t, &mut opt, &snap), Ok(0));
        assert_eq!((t.a.value, t.b.value, opt), want);
    }

    #[test]
    fn name_mismatch_rejected() {
        let (mut t, opt) = toy();
        let snap = encode(&mut t, &opt);
        let (mut other, mut opt) = toy();
        other.a.name = "renamed".into();
        assert!(matches!(
            decode(&mut other, &mut opt, &snap),
            Err(SnapshotError::Mismatch(_))
        ));
        other.a.name = "z".into();
        assert!(matches!(
            decode(&mut other, &mut opt, &snap),
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
        assert_eq!(&encode(&mut t, &opt)[..], &GOLDEN[..]);
        let mut zeroed = Toy {
            a: Param::zeros("a", 1, 2),
            b: Param::zeros("b", 1, 1),
        };
        let mut fresh = AdamW::new(1e-3);
        assert_eq!(decode(&mut zeroed, &mut fresh, &GOLDEN), Ok(7));
        assert_eq!(zeroed.a, t.a);
        assert_eq!(zeroed.b, t.b);
        assert_eq!(fresh.slots(), opt.slots());
    }

    #[test]
    fn huge_param_count_is_an_error_not_a_panic() {
        let (mut t, mut opt) = toy();
        let mut snap = encode(&mut t, &opt);
        let before = t.a.value.clone();
        for n in [u64::MAX, u64::MAX / 2, 3] {
            snap[16..24].copy_from_slice(&n.to_le_bytes());
            assert!(decode(&mut t, &mut opt, &snap).is_err(), "nparams = {n}");
        }
        snap[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode(&mut t, &mut opt, &snap),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(t.a.value, before, "failed restore must not mutate");
    }

    #[test]
    fn overflowing_shape_is_an_error_not_a_panic() {
        // The first entry's rows and cols sit after the 24-byte header,
        // `name_len` and the one-byte name "a".
        let (mut t, mut opt) = toy();
        let mut snap = encode(&mut t, &opt);
        let before = t.a.value.clone();
        for (rows, cols) in [(1u64 << 32, 1u64 << 32), (u64::MAX, 2), (2, 3 << 61)] {
            snap[29..37].copy_from_slice(&rows.to_le_bytes());
            snap[37..45].copy_from_slice(&cols.to_le_bytes());
            assert!(
                matches!(
                    decode(&mut t, &mut opt, &snap),
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
        let mut snap = encode(&mut t, &opt);
        snap[16..24].copy_from_slice(&1u64.to_le_bytes());
        t.a.value.data_mut().fill(9.0);
        let before = t.a.value.clone();
        assert!(matches!(
            decode(&mut t, &mut opt, &snap),
            Err(SnapshotError::Mismatch(_))
        ));
        assert_eq!(t.a.value, before, "failed restore must not mutate");
    }

    #[test]
    fn snapshot_size_is_deterministic() {
        let (mut t, mut opt) = toy();
        opt.t = 1;
        let s1 = encode(&mut t, &opt);
        let s2 = encode(&mut t, &opt);
        assert_eq!(s1, s2);
        // 24-byte header + entries.
        assert!(s1.len() > 24 + 3 * 4 * (6 + 4));
    }
}
