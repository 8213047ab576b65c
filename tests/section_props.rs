//! Property tests (vendored proptest) for the composable guarded-GEMM
//! section API (`attnchecker::section`).
//!
//! The three invariants the builder must uphold for *arbitrary* chains of
//! guarded GEMMs (with optional bias steps and nonlinear exit boundaries
//! whose re-encoding rides in the next GEMM):
//!
//! 1. **Transparency** — a fault-free guarded run reports nothing and its
//!    output is bit-identical to the unprotected computation.
//! 2. **Correction** — a single extreme value (INF/−INF/NaN/near-INF)
//!    injected at the section's detection point is always detected and
//!    corrected, and exact-replay refinement restores the original bits.
//! 3. **One decision point** — however the left operand arrives at
//!    `GuardedSection::gemm` (plain, column-encoded, or carrying inherited
//!    checksums into an inactive section), the logical output bits are the
//!    same and the report stays quiet.

#![allow(
    clippy::disallowed_methods,
    reason = "guarded chains are checked against the raw kernels"
)]

use attn_fault::FaultKind;
use attn_tensor::gemm;
use attn_tensor::ops::add_bias_inplace;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::{AbftReport, SectionId};
use attnchecker::section::{replay_nn, GuardedSection};
use proptest::prelude::*;

/// One guarded GEMM step of a chain.
struct ChainLink {
    w: Matrix,
    bias: Option<Vec<f32>>,
    /// Apply a tanh nonlinearity (exit-and-re-encode) before this GEMM.
    exit_before: bool,
}

/// Deterministic chain derived from a seed: `n` links of widths in
/// `[2, 6]`, each with seed-dependent bias and exit flags.
fn build_links(mut in_cols: usize, n: usize, seed: u64) -> Vec<ChainLink> {
    let mut rng = TensorRng::seed_from(seed);
    (0..n)
        .map(|_| {
            let out_cols = 2 + (rng.index(5));
            let w = rng.normal_matrix(in_cols, out_cols, 1.0);
            let bias = (rng.index(2) == 1)
                .then(|| (0..out_cols).map(|c| (c as f32) * 0.25 - 0.5).collect());
            let exit_before = rng.index(2) == 1;
            in_cols = out_cols;
            ChainLink {
                w,
                bias,
                exit_before,
            }
        })
        .collect()
}

/// The unprotected reference computation.
fn run_plain(x: &Matrix, links: &[ChainLink]) -> Matrix {
    let mut cur = x.clone();
    for l in links {
        if l.exit_before {
            cur = cur.map(|v| v.tanh());
        }
        cur = gemm::matmul(&cur, &l.w);
        if let Some(b) = &l.bias {
            add_bias_inplace(&mut cur, b);
        }
    }
    cur
}

/// How the chain input reaches the first `GuardedSection::gemm`.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// Plain matrix into an active section: encoded inside the first GEMM.
    Plain,
    /// Column-encoded up front: the checksums ride through the first GEMM.
    Encoded,
    /// Column-encoded by an active upstream section, handed to an
    /// *inactive* one: the inherited checksums are dropped, plain product.
    EncodedIntoInactive,
}

/// The same chain through the guarded-section builder, optionally striking
/// one element of the final product before the detection point.
fn run_guarded(
    x: &Matrix,
    links: &[ChainLink],
    arrival: Arrival,
    fault: Option<(usize, usize, FaultKind)>,
) -> (Matrix, AbftReport) {
    let mut report = AbftReport::default();
    let config = ProtectionConfig::full();
    let active = !matches!(arrival, Arrival::EncodedIntoInactive);
    let sec = GuardedSection::begin(SectionId::FeedForward, &config, active, &mut report);
    let upstream = GuardedSection::begin(SectionId::Output, &config, true, &mut report);
    let mut cur = match arrival {
        Arrival::Plain => CheckedMatrix::from_plain_owned(x.clone()),
        Arrival::Encoded | Arrival::EncodedIntoInactive => upstream.encode_cols(x),
    };
    let mut prev = x.clone();
    for l in links {
        // A nonlinear exit returns plain data; its re-encoding rides inside
        // the GEMM below.
        let act = l.exit_before.then(|| {
            sec.exit_cols(&cur, |m| {
                for v in m.data_mut() {
                    *v = v.tanh();
                }
            })
        });
        prev = act.clone().unwrap_or_else(|| cur.logical());
        cur = match &act {
            Some(act) => sec.gemm(act, &l.w),
            None => sec.gemm(&cur, &l.w),
        };
        if let Some(b) = &l.bias {
            cur.add_bias(b);
        }
    }
    if let Some((rf, cf, kind)) = fault {
        let (r, c) = (rf % cur.rows(), cf % cur.cols());
        cur.set(r, c, kind.apply(cur.get(r, c)));
    }
    let last = links.last().expect("non-empty chain");
    let mut det = sec.detect(&mut cur, usize::MAX);
    if det.detections() > 0 {
        det.refine(&mut cur, |r, c| {
            replay_nn(prev.row(r), |kk| last.w[(kk, c)]) + last.bias.as_ref().map_or(0.0, |b| b[c])
        });
    }
    det.absorb(&mut report);
    (cur.logical(), report)
}

fn input_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..7, 2usize..7).prop_flat_map(|(r, c)| {
        prop::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault-free guarded chains are invisible: quiet report, bit-identical
    /// output.
    #[test]
    fn fault_free_chain_is_quiet_and_bit_identical(
        x in input_matrix(),
        n_links in 1usize..4,
        seed in 0u64..500,
    ) {
        let links = build_links(x.cols(), n_links, seed);
        let plain = run_plain(&x, &links);
        let (guarded, report) = run_guarded(&x, &links, Arrival::Encoded, None);
        prop_assert!(report.is_quiet(), "spurious activity: {report}");
        prop_assert_eq!(guarded, plain);
    }

    /// One injected extreme value at the detection point is always
    /// corrected, and replay refinement restores the exact original bits.
    #[test]
    fn single_extreme_fault_is_always_corrected(
        x in input_matrix(),
        n_links in 1usize..4,
        seed in 0u64..500,
        rf in 0usize..64,
        cf in 0usize..64,
        kind_pick in 0usize..4,
    ) {
        let kind = [FaultKind::Inf, FaultKind::NegInf, FaultKind::NaN, FaultKind::NearInf]
            [kind_pick];
        let links = build_links(x.cols(), n_links, seed);
        let plain = run_plain(&x, &links);
        let (guarded, report) = run_guarded(&x, &links, Arrival::Encoded, Some((rf, cf, kind)));
        prop_assert!(report.correction_count() >= 1, "{kind:?} not corrected: {report}");
        prop_assert_eq!(report.unrecovered, 0);
        prop_assert!(
            report.corrections.iter().all(|c| c.section == SectionId::FeedForward),
            "corrections attributed to the wrong section"
        );
        prop_assert_eq!(guarded, plain);
    }

    /// `GuardedSection::gemm` is the one decision point: a left operand
    /// arriving plain (encoded on entry inside the GEMM), column-encoded
    /// (checksums ride), or column-encoded at an inactive section
    /// (checksums dropped, plain product) yields the same logical bits —
    /// the unprotected ones — and a quiet report.
    #[test]
    fn left_operand_arrival_never_changes_the_bits(
        x in input_matrix(),
        n_links in 1usize..4,
        seed in 0u64..500,
    ) {
        let links = build_links(x.cols(), n_links, seed);
        let plain = run_plain(&x, &links);
        for arrival in [Arrival::Plain, Arrival::Encoded, Arrival::EncodedIntoInactive] {
            let (guarded, report) = run_guarded(&x, &links, arrival, None);
            prop_assert!(report.is_quiet(), "{arrival:?}: spurious activity: {report}");
            prop_assert_eq!(&guarded, &plain, "{:?}", arrival);
        }
    }
}
