//! Quickstart: protect one attention block, strike it with a fault, watch
//! ATTNChecker detect and correct it in place.
//!
//! Run: `cargo run --release --example quickstart`

use attn_tensor::rng::TensorRng;
use attnchecker::attention::{
    AttentionWeights, AttnOp, FaultSite, ForwardOptions, ProtectedAttention, SectionToggles,
};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;

fn main() {
    // 1. Build an attention block (seq 16, hidden 64, 4 heads) and wrap it
    //    with full ATTNChecker protection.
    let mut rng = TensorRng::seed_from(7);
    let weights = AttentionWeights::random(64, 4, &mut rng);
    let attn = ProtectedAttention::new(weights, ProtectionConfig::full());
    let x = rng.normal_matrix(16, 64, 0.5);

    // 2. A clean forward pass for reference.
    let mut quiet = AbftReport::default();
    let clean = attn.forward_simple(&x, &mut quiet);
    println!("clean run:  {quiet}");

    // 3. The same pass, but a bit flip strikes the Q projection mid-flight
    //    (simulated via the fault hook). +INF lands in Q[3][17].
    let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
        if site.op == AttnOp::Q {
            println!(
                "  !! injecting +INF into Q[3][17] (was {:.4})",
                m.get(3, 17)
            );
            m.set(3, 17, f32::INFINITY);
        }
    };
    let mut report = AbftReport::default();
    let recovered = attn.forward(
        &x,
        ForwardOptions {
            mask: None,
            toggles: SectionToggles::all(),
            hook: Some(&mut hook),
        },
        &mut report,
    );
    println!("faulty run: {report}");

    // 4. S_AS verified Q as it left its projection, corrected the struck
    //    element from Q's column checksums and replayed its exact bits.
    assert!(recovered.output.all_finite());
    assert!(recovered.output.approx_eq(&clean.output, 1e-3, 1e-3));
    assert!(report.correction_count() > 0);
    assert_eq!(report.unrecovered, 0);
    let max_diff = recovered.output.sub(&clean.output).max_abs();
    println!(
        "recovered output matches clean output (max |Δ| = {max_diff:.2e}) \
         after {} corrections",
        report.correction_count()
    );
}
