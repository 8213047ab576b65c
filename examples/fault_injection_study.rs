//! Interactive-scale version of the paper's §3 fault-propagation study:
//! inject each error type at each attention site of an *unprotected* block
//! and print how the corruption spreads (the Table 2 methodology).
//!
//! Run: `cargo run --release --example fault_injection_study`

use attn_fault::pattern::classify;
use attn_fault::FaultKind;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::attention::{
    AttentionWeights, AttnOp, FaultSite, ForwardOptions, ProtectedAttention, SectionToggles,
};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;

fn forward(
    attn: &ProtectedAttention,
    x: &Matrix,
    inject: Option<(AttnOp, FaultKind)>,
) -> (Matrix, Matrix, Matrix) {
    // Head 0's scores as the hook sees them (pre-softmax, post-strike):
    // the block is unmasked and unprotected, so nothing changes them after.
    let mut scores = None;
    let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
        let head0 = site.head.unwrap_or(0) == 0;
        if let Some((op, kind)) = inject {
            if site.op == op && head0 {
                let old = m.get(2, 3);
                m.set(2, 3, kind.apply(old));
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
    (
        scores.expect("the AS site fires for head 0"),
        out.cache.cl.clone(),
        out.output,
    )
}

fn main() {
    let mut rng = TensorRng::seed_from(11);
    let weights = AttentionWeights::random(32, 4, &mut rng);
    let attn = ProtectedAttention::new(weights, ProtectionConfig::off());
    let x = rng.normal_matrix(16, 32, 0.5);
    let (as_ref, cl_ref, o_ref) = forward(&attn, &x, None);

    println!("error propagation in an unprotected attention block");
    println!("(single fault at element (2,3) of the named matrix)\n");
    println!(
        "{:<10} {:<8} {:>8} {:>8} {:>8}",
        "inject at", "kind", "AS", "CL", "O"
    );
    println!("{}", "-".repeat(48));
    for op in [AttnOp::Q, AttnOp::K, AttnOp::V, AttnOp::AS, AttnOp::CL] {
        for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
            let (as_f, cl_f, o_f) = forward(&attn, &x, Some((op, kind)));
            println!(
                "{:<10} {:<8} {:>8} {:>8} {:>8}",
                op.label(),
                kind.glyph(),
                classify(&as_ref, &as_f, 1e-3).cell(),
                classify(&cl_ref, &cl_f, 1e-3).cell(),
                classify(&o_ref, &o_f, 1e-3).cell(),
            );
        }
    }
    println!("\nReading: 0D = single element, 1R/1C = one row/column, 2D = sub-matrix;");
    println!("∞/Θ/N/M = INF / NaN / near-INF / mixed. Compare with the paper's Table 2.");
}
