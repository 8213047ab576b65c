//! **§5.5 reproduction** — overhead of the correction paths themselves.
//!
//! The paper decomposes recovery cost by error class:
//!
//! * 0D errors: ~0.3% step overhead on average;
//! * 1D propagated errors (from Q/K/V): ~0.7%;
//! * errors in `O`: ~3.9% (corrected in the larger merged matrix).
//!
//! This binary measures the protected step time with a fault of each class
//! against the protected fault-free step, isolating pure correction cost.
//!
//! Run: `cargo run --release -p attn_bench --bin sec55_correction_cost`

use attn_bench::timing::pct;
use attn_bench::{build_trainer, dataset_for, TextTable};
use attn_fault::FaultKind;
use attn_model::model::{InjectionSpec, ModelConfig};
use attn_model::Example;
use attnchecker::attention::AttnOp;
use attnchecker::config::ProtectionConfig;

const BATCH: usize = 8;
const REPEATS: usize = 8;

fn mean_step(config: &ModelConfig, batch: &[&Example], spec: Option<InjectionSpec>) -> f64 {
    let mut tr = build_trainer(config, ProtectionConfig::full(), 42);
    let _ = tr.train_step(batch);
    let mut total = 0.0;
    for r in 0..REPEATS {
        let out = match spec {
            Some(s) => tr.train_step_injected(batch, Some((r % batch.len(), s))),
            None => tr.train_step(batch),
        };
        assert!(!out.non_trainable);
        total += out.step_time.as_secs_f64();
    }
    total / REPEATS as f64
}

fn main() {
    println!("== §5.5: correction-path overhead by error class ==\n");
    let config = ModelConfig::bert_base();
    let ds = dataset_for(&config, BATCH * 2, 23);
    let batch: Vec<&Example> = ds.examples.iter().take(BATCH).collect();

    let clean = mean_step(&config, &batch, None);

    let cases = [
        (
            "0D in AS (direct correction)",
            InjectionSpec {
                layer: 0,
                op: AttnOp::AS,
                head: 0,
                row: 4,
                col: 9,
                kind: FaultKind::Inf,
            },
            "0.3%",
        ),
        (
            "1D from Q (propagated row)",
            InjectionSpec {
                layer: 0,
                op: AttnOp::Q,
                head: 0,
                row: 3,
                col: 7,
                kind: FaultKind::NaN,
            },
            "0.7%",
        ),
        (
            "1D from V (propagated col)",
            InjectionSpec {
                layer: 0,
                op: AttnOp::V,
                head: 1,
                row: 5,
                col: 2,
                kind: FaultKind::NearInf,
            },
            "0.7%",
        ),
        (
            "0D in O (merged matrix)",
            InjectionSpec {
                layer: 1,
                op: AttnOp::O,
                head: 0,
                row: 6,
                col: 11,
                kind: FaultKind::Inf,
            },
            "3.9%",
        ),
    ];

    let mut t = TextTable::new(&["error class", "step (ms)", "correction overhead", "paper"]);
    t.row(&[
        "fault-free (reference)".to_string(),
        format!("{:.2}", clean * 1e3),
        "-".to_string(),
        "-".to_string(),
    ]);
    for (label, spec, paper) in cases {
        let faulty = mean_step(&config, &batch, Some(spec));
        t.row(&[
            label.to_string(),
            format!("{:.2}", faulty * 1e3),
            pct(((faulty - clean) / clean).max(0.0)),
            paper.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(Correction work is confined to the faulty vectors, so overheads are");
    println!("single-digit percent; O is costlier because the merged matrix is larger.)");
}
