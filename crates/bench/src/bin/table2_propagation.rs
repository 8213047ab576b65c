//! **Table 2 reproduction** — error propagation patterns in the attention
//! mechanism.
//!
//! For each fault type (INF / NaN / near-INF) and each injection site
//! (Q, K, V, AS, CL), run one *unprotected* attention forward with a single
//! fault planted mid-pipeline, then classify the corrupted region of every
//! downstream matrix (Q, K, V, AS, AP, CL, O) against a fault-free
//! reference run, in the paper's `pattern-type` glyph notation
//! (`1R-Θ`, `1C-∞*`, `2D-M`, …).
//!
//! Its stdout is pinned in `crates/bench/golden/table2_propagation.txt`,
//! which CI diffs a fresh run against.
//!
//! Run: `cargo run --release -p attn_bench --bin table2_propagation`

use attn_bench::TextTable;
use attn_fault::pattern::{classify, PropagationReport};
use attn_fault::FaultKind;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::attention::{
    AttentionWeights, AttnOp, FaultSite, ForwardOptions, ProtectedAttention, SectionToggles,
};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;
use std::collections::BTreeMap;

const SEQ: usize = 24;
const HIDDEN: usize = 32;
const HEADS: usize = 4;

struct Snapshot {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    asc: Matrix, // per-head 0 scores (pre-softmax)
    ap: Matrix,
    cl: Matrix,
    o: Matrix,
}

fn run_once(
    attn: &ProtectedAttention,
    x: &Matrix,
    inject: Option<(AttnOp, FaultKind, usize, usize)>,
) -> Snapshot {
    let mut fired = false;
    // Head 0's scores as the hook sees them (pre-softmax, post-strike):
    // the run is unmasked and unprotected, so nothing changes them after.
    let mut asc = None;
    let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
        let head0 = site.head.is_none_or(|h| h == 0);
        if let Some((op, kind, r, c)) = inject {
            if !fired && site.op == op && head0 {
                fired = true;
                let (r, c) = (r % m.rows(), c % m.cols());
                let old = m.get(r, c);
                m.set(r, c, kind.apply(old));
            }
        }
        if site.op == AttnOp::AS && head0 {
            asc = Some(m.logical());
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
    Snapshot {
        q: out.cache.q.clone(),
        k: out.cache.k.clone(),
        v: out.cache.v.clone(),
        asc: asc.expect("the AS site fires for head 0"),
        ap: out.cache.ap[0].clone(),
        cl: out.cache.cl.clone(),
        o: out.output,
    }
}

fn cell(reference: &Matrix, corrupted: &Matrix) -> String {
    let rep: PropagationReport = classify(reference, corrupted, 1e-3);
    rep.cell()
}

fn main() {
    println!("== Table 2: Error Propagation Patterns in Attention Mechanism ==");
    println!("(FI = fault-injected matrix; per-head matrices shown for head 0)\n");

    let mut rng = TensorRng::seed_from(2024);
    let weights = AttentionWeights::random(HIDDEN, HEADS, &mut rng);
    let attn = ProtectedAttention::new(weights, ProtectionConfig::off());
    let x = rng.normal_matrix(SEQ, HIDDEN, 0.5);
    let clean = run_once(&attn, &x, None);

    let kinds: [(&str, FaultKind); 3] = [
        ("INF(∞)", FaultKind::Inf),
        ("NaN(Θ)", FaultKind::NaN),
        ("nINF(N)", FaultKind::NearInf),
    ];
    let sites = [AttnOp::Q, AttnOp::K, AttnOp::V, AttnOp::AS, AttnOp::CL];
    // A handful of victim positions; the modal pattern per cell is printed
    // (the paper aggregates ~5,000 positions; patterns are positional-
    // invariant so a few suffice for the modal cell). Columns stay inside
    // head 0 so the displayed per-head matrices always see the fault.
    let positions = [(3usize, 5usize), (11, 2), (7, 6), (0, 0), (17, 1)];

    for (kind_label, kind) in kinds {
        println!("-- Inject {kind_label} --");
        let mut table = TextTable::new(&["FI site", "Q", "K", "V", "AS", "AP", "CL", "O"]);
        for site in sites {
            let mut cell_votes: Vec<BTreeMap<String, usize>> =
                (0..7).map(|_| BTreeMap::new()).collect();
            for &(r, c) in &positions {
                let faulty = run_once(&attn, &x, Some((site, kind, r, c)));
                let cells = [
                    cell(&clean.q, &faulty.q),
                    cell(&clean.k, &faulty.k),
                    cell(&clean.v, &faulty.v),
                    cell(&clean.asc, &faulty.asc),
                    cell(&clean.ap, &faulty.ap),
                    cell(&clean.cl, &faulty.cl),
                    cell(&clean.o, &faulty.o),
                ];
                for (votes, c) in cell_votes.iter_mut().zip(cells) {
                    *votes.entry(c).or_insert(0) += 1;
                }
            }
            let modal: Vec<String> = cell_votes
                .iter()
                .enumerate()
                .map(|(i, votes)| {
                    // Prefer corruption evidence: vote among non-clean cells
                    // when any exist (ties broken lexicographically for
                    // determinism).
                    let pick = |clean: bool| {
                        votes
                            .iter()
                            .filter(|(c, _)| (c.as_str() == "-") == clean)
                            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                            .map(|(c, _)| c.clone())
                    };
                    let m = pick(false)
                        .or_else(|| pick(true))
                        .unwrap_or_else(|| "-".into());
                    // Mark the injected matrix like the paper's "FI".
                    let is_fi = matches!(
                        (i, site),
                        (0, AttnOp::Q)
                            | (1, AttnOp::K)
                            | (2, AttnOp::V)
                            | (3, AttnOp::AS)
                            | (5, AttnOp::CL)
                    );
                    if is_fi {
                        format!("FI({m})")
                    } else {
                        m
                    }
                })
                .collect();
            let mut row = vec![site.label().to_string()];
            row.extend(modal);
            table.row(&row);
        }
        println!("{}", table.render());
    }

    println!("Paper reference (Table 2): Q→AS:1R, K→AS:1C then 2D downstream,");
    println!("V→CL:1C, AS→AP..O:1R, CL→O:1R; INF turns to NaN through softmax.");
}
