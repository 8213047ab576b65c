//! The paper's Table 2 propagation laws as executable cross-crate
//! assertions: where a fault lands decides the pattern shape in every
//! downstream matrix, across all four architectures' attention dataflow.

use attn_fault::pattern::{classify, PatternClass};
use attn_fault::FaultKind;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::attention::{
    AttentionWeights, AttnOp, FaultSite, ForwardOptions, ProtectedAttention, SectionToggles,
};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;

struct Traces {
    scores: Matrix,
    ap: Matrix,
    cl: Matrix,
    o: Matrix,
}

fn run(
    attn: &ProtectedAttention,
    x: &Matrix,
    inject: Option<(AttnOp, FaultKind, usize, usize)>,
) -> Traces {
    // Head 0's scores as the hook sees them (pre-softmax, post-strike):
    // the run is unmasked and unprotected, so nothing changes them after.
    let mut scores = None;
    let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
        let head0 = site.head.unwrap_or(0) == 0;
        if let Some((op, kind, r, c)) = inject {
            if site.op == op && head0 {
                let (r, c) = (r % m.rows(), c % m.cols());
                let old = m.get(r, c);
                m.set(r, c, kind.apply(old));
            }
        }
        if site.op == AttnOp::AS && head0 {
            scores = Some(m.logical());
        }
    };
    let mut report = AbftReport::default();
    let out = attn.forward(
        x,
        ForwardOptions {
            mask: None,
            toggles: SectionToggles::none(),
            hook: Some(&mut hook),
        },
        &mut report,
    );
    Traces {
        scores: scores.expect("the AS site fires for head 0"),
        ap: out.cache.ap[0].clone(),
        cl: out.cache.cl.clone(),
        o: out.output,
    }
}

fn setup() -> (Matrix, ProtectedAttention, Traces) {
    let mut rng = TensorRng::seed_from(321);
    let weights = AttentionWeights::random(32, 4, &mut rng);
    let attn = ProtectedAttention::new(weights, ProtectionConfig::off());
    let x = rng.normal_matrix(20, 32, 0.5);
    let clean = run(&attn, &x, None);
    (x, attn, clean)
}

#[test]
fn q_fault_becomes_one_row_in_scores() {
    let (x, attn, clean) = setup();
    for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
        let faulty = run(&attn, &x, Some((AttnOp::Q, kind, 5, 3)));
        let rep = classify(&clean.scores, &faulty.scores, 1e-3);
        assert!(
            matches!(rep.pattern, PatternClass::OneRow { row: 5 }),
            "{kind:?}: {rep:?}"
        );
    }
}

#[test]
fn k_fault_becomes_one_col_in_scores_then_2d_downstream() {
    let (x, attn, clean) = setup();
    let faulty = run(&attn, &x, Some((AttnOp::K, FaultKind::Inf, 7, 2)));
    let rep = classify(&clean.scores, &faulty.scores, 1e-3);
    assert!(
        matches!(rep.pattern, PatternClass::OneCol { col: 7 }),
        "{rep:?}"
    );
    // Softmax mixes the column into every row → 2D from AP onward.
    let rep_ap = classify(&clean.ap, &faulty.ap, 1e-3);
    assert_eq!(rep_ap.pattern, PatternClass::TwoD);
    let rep_o = classify(&clean.o, &faulty.o, 1e-3);
    assert_eq!(rep_o.pattern, PatternClass::TwoD);
}

#[test]
fn inf_turns_to_nan_through_softmax() {
    // Table 2's type transition: AS:1R-∞* → AP:1R-Θ.
    let (x, attn, clean) = setup();
    let faulty = run(&attn, &x, Some((AttnOp::Q, FaultKind::Inf, 4, 1)));
    let rep_as = classify(&clean.scores, &faulty.scores, 1e-3);
    assert!(
        rep_as.census.pos_inf + rep_as.census.neg_inf > 0,
        "{rep_as:?}"
    );
    let rep_ap = classify(&clean.ap, &faulty.ap, 1e-3);
    assert!(rep_ap.census.nan > 0, "{rep_ap:?}");
    assert_eq!(rep_ap.census.pos_inf + rep_ap.census.neg_inf, 0);
}

#[test]
fn near_inf_stays_finite_through_softmax() {
    // near-INF saturates softmax to a one-hot instead of NaN — the reason
    // near-INF faults in AS rarely break training (Table 4).
    let (x, attn, clean) = setup();
    let faulty = run(&attn, &x, Some((AttnOp::AS, FaultKind::NearInf, 3, 6)));
    assert!(faulty.ap.all_finite());
    let rep_ap = classify(&clean.ap, &faulty.ap, 1e-3);
    assert!(
        matches!(rep_ap.pattern, PatternClass::OneRow { row: 3 }),
        "{rep_ap:?}"
    );
    assert_eq!(rep_ap.census.extreme(), 0, "AP stays moderate: {rep_ap:?}");
}

#[test]
fn v_fault_becomes_one_col_in_context_layer() {
    let (x, attn, clean) = setup();
    let faulty = run(&attn, &x, Some((AttnOp::V, FaultKind::NaN, 6, 4)));
    let rep_cl = classify(&clean.cl, &faulty.cl, 1e-3);
    // Column within head 0's slice of CL.
    assert!(
        matches!(rep_cl.pattern, PatternClass::OneCol { col: 4 }),
        "{rep_cl:?}"
    );
}

#[test]
fn cl_fault_becomes_one_row_in_output() {
    let (x, attn, clean) = setup();
    let faulty = run(&attn, &x, Some((AttnOp::CL, FaultKind::Inf, 9, 2)));
    let rep_o = classify(&clean.o, &faulty.o, 1e-3);
    assert!(
        matches!(rep_o.pattern, PatternClass::OneRow { row: 9 }),
        "{rep_o:?}"
    );
}

#[test]
fn protection_confines_every_studied_pattern() {
    // With protection on, none of the Table 2 patterns survive to O.
    let mut rng = TensorRng::seed_from(77);
    let weights = AttentionWeights::random(32, 4, &mut rng);
    let protected = ProtectedAttention::new(weights, ProtectionConfig::full());
    let x = rng.normal_matrix(20, 32, 0.5);
    let mut quiet = AbftReport::default();
    let clean = protected.forward_simple(&x, &mut quiet);
    for op in AttnOp::STUDY {
        for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
            let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                if site.op == op && site.head.unwrap_or(1) == 1 {
                    let (r, c) = (3 % m.rows(), 2 % m.cols());
                    let old = m.get(r, c);
                    m.set(r, c, kind.apply(old));
                }
            };
            let mut report = AbftReport::default();
            let out = protected.forward(
                &x,
                ForwardOptions {
                    mask: None,
                    toggles: SectionToggles::all(),
                    hook: Some(&mut hook),
                },
                &mut report,
            );
            let rep = classify(&clean.output, &out.output, 1e-3);
            assert!(
                rep.is_clean(),
                "{op:?}/{kind:?} leaked {rep:?} into O ({report})"
            );
        }
    }
}
