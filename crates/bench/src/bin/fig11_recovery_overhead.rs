//! **Fig 11 reproduction** — per-step recovery overhead:
//! checkpoint/restore (CR) vs ATTNChecker.
//!
//! For each model, the cost of recovering from one extreme fault during a
//! training step:
//!
//! * **CR** — the paper's baseline: checkpoint each step, and on a
//!   non-trainable state reload the last checkpoint and re-execute the
//!   step. Charged cost: save + load + replay, as a % of a clean step.
//! * **ATTNChecker** — correction happens inside the faulty step; charged
//!   cost: (protected faulty step − unprotected clean step), as a % of a
//!   clean step.
//!
//! Rounds interleave the three configurations and medians are reported, so
//! host drift cancels. When the measured ATTNChecker overhead is below the
//! measurement floor (0.5%), the reduction factor is reported against the
//! floor (a conservative lower bound).
//!
//! Run: `cargo run --release -p attn_bench --bin fig11_recovery_overhead`

use attn_bench::timing::{median, pct};
use attn_bench::{build_trainer, dataset_for, TextTable};
use attn_ckpt::CheckpointManager;
use attn_fault::FaultKind;
use attn_model::model::{InjectionSpec, ModelConfig};
use attn_model::Example;
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;

const BATCH: usize = 8;
const ROUNDS: usize = 9;
/// Measurement floor for the ABFT overhead used in the reduction ratio.
const ABFT_FLOOR: f64 = 0.005;

fn main() {
    println!("== Fig 11: per-step recovery overhead (CR vs ATTNChecker) ==\n");
    let mut t = TextTable::new(&[
        "Model",
        "clean step (ms)",
        "CR recovery",
        "ATTNChecker recovery",
        "reduction",
    ]);
    for config in ModelConfig::paper_four() {
        let ds = dataset_for(&config, BATCH * 2, 17);
        let batch: Vec<&Example> = ds.examples.iter().take(BATCH).collect();

        let mut base = build_trainer(&config, ProtectionConfig::off(), 42);
        let mut prot = build_trainer(&config, ProtectionConfig::full(), 42);
        let dir = std::env::temp_dir().join(format!(
            "attnchk-fig11-{}-{}",
            config.name.replace(' ', "_"),
            std::process::id()
        ));
        let mut mgr = CheckpointManager::new(&dir).expect("checkpoint dir");

        // Warmup each path once.
        let _ = base.train_step(&batch);
        let _ = prot.train_step(&batch);
        let _ = mgr
            .recover_and_replay(&mut base, &batch)
            .expect("warmup CR");

        let mut clean_ms = Vec::with_capacity(ROUNDS);
        let mut cr_ms = Vec::with_capacity(ROUNDS);
        let mut faulty_ms = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            clean_ms.push(base.train_step(&batch).step_time.as_secs_f64() * 1e3);

            let (timing, _) = mgr
                .recover_and_replay(&mut base, &batch)
                .expect("CR recovery");
            cr_ms.push(timing.total().as_secs_f64() * 1e3);

            let spec = InjectionSpec {
                layer: r % config.layers,
                op: [AttnOp::Q, AttnOp::K, AttnOp::V, AttnOp::AS, AttnOp::CL][r % 5],
                head: r % config.heads,
                row: 3 + r,
                col: 5 + r,
                kind: [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf][r % 3],
            };
            let out = prot.train_step_injected(&batch, Some((r % BATCH, spec)));
            assert!(!out.non_trainable, "{}: correction failed", config.name);
            assert!(out.report.correction_count() > 0);
            faulty_ms.push(out.step_time.as_secs_f64() * 1e3);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let clean = median(&clean_ms);
        let cr = median(&cr_ms);
        let faulty = median(&faulty_ms);
        let cr_overhead = cr / clean;
        let abft_overhead = ((faulty - clean) / clean).max(0.0);
        let reduction = cr_overhead / abft_overhead.max(ABFT_FLOOR);
        let reduction_cell = if abft_overhead < ABFT_FLOOR {
            format!(">{reduction:.0}x")
        } else {
            format!("{reduction:.0}x")
        };
        t.row(&[
            config.name.clone(),
            format!("{clean:.2}"),
            pct(cr_overhead),
            pct(abft_overhead),
            reduction_cell,
        ]);
    }
    println!("{}", t.render());
    println!("Paper reference: CR >200% per faulty step; ATTNChecker <10%;");
    println!("reduction 32×/34×/24×/49× for Bert/GPT-2/GPT-Neo/Roberta.");
}
