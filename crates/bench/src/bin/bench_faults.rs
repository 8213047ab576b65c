//! **Guarded-op fault campaign** — taxonomy-driven detection/correction
//! rates for every guard tier the non-GEMM protection work added:
//!
//! * **verify-level**: each `attn_tensor::guard::verify_*` entry is driven
//!   directly — compute a clean output, tamper it with one fault class,
//!   verify, and check the heal restored the fault-free bits;
//! * **optimizer moments**: AdamW `m`/`v` digests — corrupt a moment at
//!   rest between two guarded steps and require the healed step to be
//!   bit-identical to a fault-free twin;
//! * **KV at rest**: park a decode session, corrupt a parked K/V cell (or
//!   row region), unpark, and require the checksum sweep to detect and the
//!   continued decode to match the fault-free token stream;
//! * **end-to-end train**: `train_step_injected` at GEMM sites — the
//!   pre-existing ABFT tier, re-measured so one artifact covers the whole
//!   step;
//! * **fault-free sweep**: every tier runs clean trials; any detection is
//!   a false positive.
//!
//! Fault classes: the paper's extreme set (`INF`/`-INF`/`NaN`/`nINF`,
//! §2.2) plus `sub` (a mantissa flip below every magnitude threshold),
//! `stuck` (a whole row repeating one value), and `burst` (consecutive
//! exponent flips along a row).
//!
//! Enforced floors (exit non-zero on violation):
//!
//! * zero detections across all fault-free trials (the bitwise adoption
//!   gate makes false positives structural, not statistical);
//! * 100% detection AND bit-exact correction for the extreme classes on
//!   every verify-level guard;
//! * 100% detection + bit-exact heal for single-cell classes on the
//!   optimizer moments; 100% detection for the region classes;
//! * 100% detection for extreme classes injected into at-rest K/V data;
//! * 100% detection, zero non-trainable steps for extreme classes at the
//!   end-to-end GEMM sites.
//!
//! Sub-threshold (`sub`) rates on the invariant screens are *recorded*,
//! not floored: a perturbation below the screen tolerance is invisible by
//! design to tolerance screens (the exact tiers — moment digests — still
//! catch it), and the artifact documents exactly that boundary.
//!
//! Writes `BENCH_faults.json`; CI regenerates it and fails on any byte
//! that differs from the committed file. Run:
//! `cargo run --release -p attn_bench --bin bench_faults`

use attn_bench::{build_trainer, dataset_for, TextTable};
use attn_fault::{run_campaign, FaultKind};
use attn_model::model::{InjectionSpec, ModelConfig, TransformerModel};
use attn_model::{AdamW, DecodeState, Example, HasParams, Param};
use attn_tensor::guard::{
    verify_gelu, verify_gelu_backward, verify_layer_norm, verify_layer_norm_backward,
    verify_rowsum_add, verify_softmax_backward, verify_softmax_rows,
};
use attn_tensor::ops::{
    gelu_backward, gelu_matrix, layer_norm, layer_norm_backward, softmax_rows,
    softmax_rows_backward,
};
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::attention::{AttnOp, SectionToggles};
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;
use std::fmt::Write as _;

const BURST_LEN: usize = 3;

/// The full taxonomy one campaign cell is run per (class × site).
const CLASSES: [FaultKind; 7] = [
    FaultKind::Inf,
    FaultKind::NegInf,
    FaultKind::NaN,
    FaultKind::NearInf,
    FaultKind::SubThreshold,
    FaultKind::StuckRow,
    FaultKind::Burst { len: BURST_LEN },
];

fn guard() -> OpGuard {
    let cfg = ProtectionConfig::full();
    OpGuard::new(true, cfg.abft.detect_tol)
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Plant `kind` at a random location of `m` (region kinds corrupt a span
/// of the victim row). The victim row is drawn before its column, from a
/// stream seeded off `rng`.
fn tamper(m: &mut Matrix, kind: FaultKind, rng: &mut TensorRng) {
    let mut pick = TensorRng::seed_from(rng.next_u64());
    let row = pick.index(m.rows());
    let col = pick.index(m.cols());
    kind.strike(m.row_mut(row), col);
}

/// One trial's verdict. `detected` is the guard's own claim; `corrected`
/// is ground truth — the final state is bit-identical to the fault-free
/// computation.
#[derive(Clone, Copy)]
struct Outcome {
    detected: bool,
    corrected: bool,
}

fn outcome(g: &OpGuard, bit_exact: bool) -> Outcome {
    Outcome {
        detected: g.stats().detections > 0,
        corrected: bit_exact,
    }
}

// ---------------------------------------------------------------------------
// verify-level sites
// ---------------------------------------------------------------------------

type SiteFn = fn(&mut TensorRng, Option<FaultKind>) -> Outcome;

fn site_softmax(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let x = rng.uniform_matrix(4, 12, -4.0, 4.0);
    let clean = softmax_rows(&x);
    let mut y = clean.clone();
    if let Some(k) = fault {
        tamper(&mut y, k, rng);
    }
    let g = guard();
    verify_softmax_rows(&x, &mut y, &g);
    outcome(&g, bits_eq(y.data(), clean.data()))
}

fn site_softmax_backward(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let x = rng.uniform_matrix(4, 12, -4.0, 4.0);
    let y = softmax_rows(&x);
    let dy = rng.uniform_matrix(4, 12, -2.0, 2.0);
    let clean = softmax_rows_backward(&y, &dy);
    let mut dx = clean.clone();
    if let Some(k) = fault {
        tamper(&mut dx, k, rng);
    }
    let g = guard();
    verify_softmax_backward(&y, &dy, &mut dx, &g);
    outcome(&g, bits_eq(dx.data(), clean.data()))
}

fn ln_params(rng: &mut TensorRng, d: usize) -> (Vec<f32>, Vec<f32>) {
    let gamma: Vec<f32> = (0..d).map(|_| rng.uniform(0.5, 1.5)).collect();
    let beta: Vec<f32> = (0..d).map(|_| rng.uniform(-0.5, 0.5)).collect();
    (gamma, beta)
}

fn site_layer_norm(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let x = rng.uniform_matrix(4, 16, -3.0, 3.0);
    let (gamma, beta) = ln_params(rng, 16);
    let eps = 1e-5;
    let (clean, _) = layer_norm(&x, &gamma, &beta, eps);
    let (mut out, mut cache) = layer_norm(&x, &gamma, &beta, eps);
    if let Some(k) = fault {
        tamper(&mut out, k, rng);
    }
    let g = guard();
    verify_layer_norm(&x, &gamma, &beta, eps, &mut out, &mut cache, &g);
    outcome(&g, bits_eq(out.data(), clean.data()))
}

fn site_layer_norm_backward(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let x = rng.uniform_matrix(4, 16, -3.0, 3.0);
    let (gamma, beta) = ln_params(rng, 16);
    let (_, cache) = layer_norm(&x, &gamma, &beta, 1e-5);
    let dy = rng.uniform_matrix(4, 16, -2.0, 2.0);
    let (clean_dx, clean_dg, clean_db) = layer_norm_backward(&dy, &cache, &gamma);
    let (mut dx, mut dgamma, mut dbeta) = layer_norm_backward(&dy, &cache, &gamma);
    if let Some(k) = fault {
        tamper(&mut dx, k, rng);
    }
    let g = guard();
    verify_layer_norm_backward(&dy, &cache, &gamma, &mut dx, &mut dgamma, &mut dbeta, &g);
    let bits = bits_eq(dx.data(), clean_dx.data())
        && bits_eq(&dgamma, &clean_dg)
        && bits_eq(&dbeta, &clean_db);
    outcome(&g, bits)
}

fn site_gelu(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let x = rng.uniform_matrix(4, 16, -4.0, 4.0);
    let clean = gelu_matrix(&x);
    let mut y = clean.clone();
    if let Some(k) = fault {
        tamper(&mut y, k, rng);
    }
    let g = guard();
    verify_gelu(&x, &mut y, &g);
    outcome(&g, bits_eq(y.data(), clean.data()))
}

fn site_gelu_backward(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let x = rng.uniform_matrix(4, 16, -4.0, 4.0);
    let dy = rng.uniform_matrix(4, 16, -2.0, 2.0);
    let clean = gelu_backward(&x, &dy);
    let mut dx = clean.clone();
    if let Some(k) = fault {
        tamper(&mut dx, k, rng);
    }
    let g = guard();
    verify_gelu_backward(&x, &dy, &mut dx, &g);
    outcome(&g, bits_eq(dx.data(), clean.data()))
}

fn site_residual_add(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let a = rng.uniform_matrix(4, 16, -2.0, 2.0);
    let b = rng.uniform_matrix(4, 16, -2.0, 2.0);
    let clean = a.add(&b);
    let mut out = clean.clone();
    if let Some(k) = fault {
        tamper(&mut out, k, rng);
    }
    let g = guard();
    for r in 0..out.rows() {
        verify_rowsum_add(a.row(r), b.row(r), out.row_mut(r), &g);
    }
    outcome(&g, bits_eq(out.data(), clean.data()))
}

fn site_embedding(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let tok = rng.normal_matrix(8, 16, 0.5);
    let pos = rng.normal_matrix(6, 16, 0.5);
    let tokens: Vec<usize> = (0..4).map(|_| rng.index(8)).collect();
    let mut clean = Matrix::zeros(4, 16);
    for (r, &t) in tokens.iter().enumerate() {
        for (d, (&tv, &pv)) in clean
            .row_mut(r)
            .iter_mut()
            .zip(tok.row(t).iter().zip(pos.row(r)))
        {
            *d = tv + pv;
        }
    }
    let mut out = clean.clone();
    if let Some(k) = fault {
        tamper(&mut out, k, rng);
    }
    let g = guard();
    for (r, &t) in tokens.iter().enumerate() {
        verify_rowsum_add(tok.row(t), pos.row(r), out.row_mut(r), &g);
    }
    outcome(&g, bits_eq(out.data(), clean.data()))
}

const VERIFY_SITES: [(&str, SiteFn); 8] = [
    ("softmax", site_softmax),
    ("softmax_backward", site_softmax_backward),
    ("layer_norm", site_layer_norm),
    ("layer_norm_backward", site_layer_norm_backward),
    ("gelu", site_gelu),
    ("gelu_backward", site_gelu_backward),
    ("residual_add", site_residual_add),
    ("embedding", site_embedding),
];

// ---------------------------------------------------------------------------
// optimizer moments
// ---------------------------------------------------------------------------

struct OneParam {
    p: Param,
}
impl HasParams for OneParam {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.p);
    }
}

/// Two guarded AdamW steps with a moment corruption planted between them,
/// against a fault-free twin stepped on identical gradients.
fn optim_trial(rng: &mut TensorRng, fault: Option<FaultKind>) -> Outcome {
    let w0 = rng.normal_matrix(4, 8, 0.5);
    let g1 = rng.normal_matrix(4, 8, 0.1);
    let g2 = rng.normal_matrix(4, 8, 0.1);
    let mut clean = OneParam {
        p: Param::new("w", w0.clone()),
    };
    let mut faulty = OneParam {
        p: Param::new("w", w0),
    };
    let mut oc = AdamW::new(0.01);
    let mut of = AdamW::new(0.01);

    clean.p.grad = g1.clone();
    faulty.p.grad = g1;
    oc.step(&mut clean, &OpGuard::off());
    of.step(&mut faulty, &guard()); // captures digests

    if let Some(k) = fault {
        let target = if rng.bernoulli(0.5) {
            &mut faulty.p.v
        } else {
            &mut faulty.p.m
        };
        tamper(target, k, rng);
    }

    clean.p.grad = g2.clone();
    faulty.p.grad = g2;
    oc.step(&mut clean, &OpGuard::off());
    let g = guard();
    of.step(&mut faulty, &g); // verifies + heals the at-rest moments
    let bits = bits_eq(faulty.p.value.data(), clean.p.value.data())
        && bits_eq(faulty.p.m.data(), clean.p.m.data())
        && bits_eq(faulty.p.v.data(), clean.p.v.data());
    outcome(&g, bits)
}

// ---------------------------------------------------------------------------
// KV at rest
// ---------------------------------------------------------------------------

fn lm_config() -> ModelConfig {
    let mut cfg = ModelConfig::gpt2();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.vocab = 64;
    cfg.max_seq = 32;
    cfg.num_classes = cfg.vocab;
    cfg
}

fn argmax(logits: &Matrix) -> usize {
    let row = logits.row(0);
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Decode `n` greedy tokens from the model-level API, returning them.
fn decode_greedy(
    m: &TransformerModel,
    state: &mut DecodeState,
    first: usize,
    n: usize,
    report: &mut AbftReport,
) -> Vec<usize> {
    let mut toks = Vec::with_capacity(n);
    let mut t = first;
    for _ in 0..n {
        let logits = m.extend(&[t], state, SectionToggles::all(), None, report);
        t = argmax(&logits);
        toks.push(t);
    }
    toks
}

/// Prefill + decode, park, corrupt a parked K/V cell (or region), unpark,
/// continue decoding; compare against the fault-free token stream.
fn kv_trial(
    m: &TransformerModel,
    prompt: &[usize],
    clean_tail: &[usize],
    rng: &mut TensorRng,
    fault: Option<FaultKind>,
) -> Outcome {
    let mut state = m.new_decode_state();
    let mut report = AbftReport::default();
    let logits = m.extend(prompt, &mut state, SectionToggles::all(), None, &mut report);
    let first = argmax(&logits);
    let _ = decode_greedy(m, &mut state, first, 3, &mut report);

    m.park_state(&mut state, &mut report);
    if let Some(k) = fault {
        let d = m.config.hidden / m.config.heads;
        let layer = rng.index(m.config.layers);
        let head = rng.index(m.config.heads);
        let cache = &mut state.layer_caches_mut()[layer];
        let r = rng.index(cache.len());
        let c = rng.index(d);
        if rng.bernoulli(0.5) {
            k.strike(cache.k_row_mut(head, r), c);
        } else {
            // V rows carry their two checksum columns inline at the end;
            // corrupt data cells only (a struck checksum is a rebuild, not
            // a data fault).
            k.strike(&mut cache.v_row_mut(head, r)[..d], c);
        }
    }
    let mut unpark_report = AbftReport::default();
    m.unpark_state(&mut state, &mut unpark_report);

    let mut tail_report = AbftReport::default();
    let resume = *clean_tail.first().expect("clean tail nonempty");
    let tail = decode_greedy(
        m,
        &mut state,
        resume,
        clean_tail.len() - 1,
        &mut tail_report,
    );
    Outcome {
        detected: unpark_report.detections > 0,
        corrected: unpark_report.unrecovered == 0 && tail == clean_tail[1..],
    }
}

// ---------------------------------------------------------------------------
// end-to-end train step (GEMM sites)
// ---------------------------------------------------------------------------

fn train_config() -> ModelConfig {
    let mut cfg = ModelConfig::bert_base();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.vocab = 64;
    cfg.max_seq = 16;
    cfg
}

/// One injected training step; detection comes from the step report,
/// "corrected" means the step stayed trainable with a finite loss.
fn e2e_train_trial(
    cfg: &ModelConfig,
    batch: &[&Example],
    site: AttnOp,
    kind: FaultKind,
    trial: usize,
) -> Outcome {
    let mut tr = build_trainer(cfg, ProtectionConfig::full(), 42);
    let _ = tr.train_step(batch);
    let spec = InjectionSpec {
        layer: 0,
        op: site,
        head: trial % cfg.heads,
        row: 1 + trial,
        col: 2 + 3 * trial,
        kind,
    };
    let out = tr.train_step_injected(batch, Some((trial % batch.len(), spec)));
    Outcome {
        detected: out.report.detections > 0,
        corrected: !out.non_trainable && out.loss.is_finite(),
    }
}

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

struct CellRates {
    detection: f64,
    correction: f64,
    trials: usize,
}

fn rates(outcomes: &[Outcome]) -> CellRates {
    let n = outcomes.len();
    CellRates {
        detection: outcomes.iter().filter(|o| o.detected).count() as f64 / n as f64,
        correction: outcomes.iter().filter(|o| o.corrected).count() as f64 / n as f64,
        trials: n,
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trials = 48;
    let fp_trials = 200;
    let extreme = FaultKind::EXTREME_SET;
    let mut failures: Vec<String> = Vec::new();
    let mut json_sections: Vec<String> = Vec::new();

    // ---- verify-level campaign -------------------------------------------
    println!("== guarded-op fault campaign ({trials} trials/cell) ==");
    let mut table = TextTable::new(&[
        "site \\ class",
        "INF",
        "-INF",
        "NaN",
        "nINF",
        "sub",
        "stuck",
        "burst",
    ]);
    let mut verify_json = String::from("  \"verify_ops\": {\n");
    for (si, (name, site)) in VERIFY_SITES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        let mut cells = Vec::new();
        for (ki, kind) in CLASSES.into_iter().enumerate() {
            let outcomes = run_campaign(
                workers,
                0xFA01 + (si * 101 + ki) as u64,
                trials,
                |_, rng| site(rng, Some(kind)),
            );
            let c = rates(&outcomes);
            if extreme.contains(&kind) {
                if c.detection < 1.0 {
                    failures.push(format!(
                        "{name}/{kind}: detection {} < 100%",
                        pct(c.detection)
                    ));
                }
                if c.correction < 1.0 {
                    failures.push(format!(
                        "{name}/{kind}: correction {} < 100%",
                        pct(c.correction)
                    ));
                }
            }
            row.push(format!("{}/{}", pct(c.detection), pct(c.correction)));
            cells.push((kind, c));
        }
        table.row(&row);
        let _ = write!(verify_json, "    \"{name}\": {{");
        for (i, (kind, c)) in cells.iter().enumerate() {
            let _ = write!(
                verify_json,
                "{}\"{kind}\": {{\"detection\": {:.4}, \"correction\": {:.4}, \"trials\": {}}}",
                if i == 0 { "" } else { ", " },
                c.detection,
                c.correction,
                c.trials
            );
        }
        let _ = writeln!(
            verify_json,
            "}}{}",
            if si + 1 == VERIFY_SITES.len() {
                ""
            } else {
                ","
            }
        );
    }
    verify_json.push_str("  },");
    json_sections.push(verify_json);
    println!(
        "-- verify-level guards (detection/correction, bit-exact) --\n{}",
        table.render()
    );

    // ---- optimizer moments -----------------------------------------------
    let mut table = TextTable::new(&["class", "detection", "bit-exact heal"]);
    let mut optim_json = String::from("  \"optimizer_moments\": {");
    for (ki, kind) in CLASSES.into_iter().enumerate() {
        let outcomes = run_campaign(workers, 0x0AD0 + ki as u64, trials, |_, rng| {
            optim_trial(rng, Some(kind))
        });
        let c = rates(&outcomes);
        if c.detection < 1.0 {
            failures.push(format!(
                "moments/{kind}: detection {} < 100%",
                pct(c.detection)
            ));
        }
        // Every class must heal exactly: single-cell faults restore through
        // the per-row digest, and the region classes (stuck row, burst) —
        // single-row spans — restore through the column-digest axis, where
        // each corrupted cell is the only suspect in its column.
        if c.correction < 1.0 {
            failures.push(format!(
                "moments/{kind}: bit-exact heal {} < 100%",
                pct(c.correction)
            ));
        }
        table.row(&[kind.to_string(), pct(c.detection), pct(c.correction)]);
        let _ = write!(
            optim_json,
            "{}\"{kind}\": {{\"detection\": {:.4}, \"correction\": {:.4}, \"trials\": {}}}",
            if ki == 0 { "" } else { ", " },
            c.detection,
            c.correction,
            c.trials
        );
    }
    optim_json.push_str("},");
    json_sections.push(optim_json);
    println!(
        "-- AdamW moment digests (at-rest m/v corruption between steps) --\n{}",
        table.render()
    );

    // ---- KV at rest -------------------------------------------------------
    let kv_cfg = lm_config();
    let mut mrng = TensorRng::seed_from(4242);
    let kv_model = TransformerModel::new(kv_cfg.clone(), ProtectionConfig::full(), &mut mrng);
    let prompt: Vec<usize> = (0..6).map(|i| (i * 67 + 11) % kv_cfg.vocab).collect();
    // Fault-free reference stream: the decoded tokens after the park point.
    let clean_tail = {
        let mut state = kv_model.new_decode_state();
        let mut report = AbftReport::default();
        let logits = kv_model.extend(
            &prompt,
            &mut state,
            SectionToggles::all(),
            None,
            &mut report,
        );
        let first = argmax(&logits);
        let head3 = decode_greedy(&kv_model, &mut state, first, 3, &mut report);
        let resume = *head3.last().expect("decoded 3");
        let mut tail = vec![resume];
        tail.extend(decode_greedy(&kv_model, &mut state, resume, 4, &mut report));
        tail
    };
    let kv_trials = 24;
    let mut table = TextTable::new(&["class", "detection", "healed stream"]);
    let mut kv_json = String::from("  \"kv_at_rest\": {");
    for (ki, kind) in CLASSES.into_iter().enumerate() {
        let outcomes = run_campaign(workers, 0x4B50 + ki as u64, kv_trials, |_, rng| {
            kv_trial(&kv_model, &prompt, &clean_tail, rng, Some(kind))
        });
        let c = rates(&outcomes);
        if extreme.contains(&kind) && c.detection < 1.0 {
            failures.push(format!(
                "kv_at_rest/{kind}: detection {} < 100%",
                pct(c.detection)
            ));
        }
        table.row(&[kind.to_string(), pct(c.detection), pct(c.correction)]);
        let _ = write!(
            kv_json,
            "{}\"{kind}\": {{\"detection\": {:.4}, \"correction\": {:.4}, \"trials\": {}}}",
            if ki == 0 { "" } else { ", " },
            c.detection,
            c.correction,
            c.trials
        );
    }
    kv_json.push_str("},");
    json_sections.push(kv_json);
    println!(
        "-- at-rest paged KV (park → corrupt parked block → unpark) --\n{}",
        table.render()
    );

    // ---- end-to-end train step (GEMM sites) ------------------------------
    let t_cfg = train_config();
    let ds = dataset_for(&t_cfg, 4, 99);
    let batch: Vec<&Example> = ds.examples.iter().collect();
    let e2e_trials = 4;
    let sites = [AttnOp::Q, AttnOp::AS, AttnOp::CL];
    let mut table = TextTable::new(&["site \\ class", "INF", "-INF", "NaN", "nINF"]);
    let mut e2e_json = String::from("  \"e2e_train_gemm\": {\n");
    for (si, site) in sites.iter().enumerate() {
        let mut row = vec![format!("{site:?}")];
        let mut cells = Vec::new();
        for kind in extreme {
            let outcomes: Vec<Outcome> = (0..e2e_trials)
                .map(|t| e2e_train_trial(&t_cfg, &batch, *site, kind, t))
                .collect();
            let c = rates(&outcomes);
            if c.detection < 1.0 {
                failures.push(format!(
                    "e2e_train/{site:?}/{kind}: detection {} < 100%",
                    pct(c.detection)
                ));
            }
            if c.correction < 1.0 {
                failures.push(format!(
                    "e2e_train/{site:?}/{kind}: step survival {} < 100%",
                    pct(c.correction)
                ));
            }
            row.push(format!("{}/{}", pct(c.detection), pct(c.correction)));
            cells.push((kind, c));
        }
        table.row(&row);
        let _ = write!(e2e_json, "    \"{site:?}\": {{");
        for (i, (kind, c)) in cells.iter().enumerate() {
            let _ = write!(
                e2e_json,
                "{}\"{kind}\": {{\"detection\": {:.4}, \"survival\": {:.4}, \"trials\": {}}}",
                if i == 0 { "" } else { ", " },
                c.detection,
                c.correction,
                c.trials
            );
        }
        let _ = writeln!(
            e2e_json,
            "}}{}",
            if si + 1 == sites.len() { "" } else { "," }
        );
    }
    e2e_json.push_str("  },");
    json_sections.push(e2e_json);
    println!(
        "-- end-to-end train step, GEMM sites (detection/step survival) --\n{}",
        table.render()
    );

    // ---- fault-free false-positive sweep ---------------------------------
    let mut fp_detections = 0usize;
    let mut fp_total = 0usize;
    for (si, (_, site)) in VERIFY_SITES.iter().enumerate() {
        let outcomes = run_campaign(workers, 0xFF00 + si as u64, fp_trials, |_, rng| {
            site(rng, None)
        });
        fp_detections += outcomes.iter().filter(|o| o.detected).count();
        fp_total += outcomes.len();
    }
    let outcomes = run_campaign(workers, 0xFF80, fp_trials, |_, rng| optim_trial(rng, None));
    fp_detections += outcomes.iter().filter(|o| o.detected).count();
    fp_total += outcomes.len();
    let outcomes = run_campaign(workers, 0xFF90, kv_trials, |_, rng| {
        kv_trial(&kv_model, &prompt, &clean_tail, rng, None)
    });
    fp_detections += outcomes.iter().filter(|o| o.detected).count();
    fp_total += outcomes.len();
    // Two guarded fault-free training steps: the whole step report must be
    // quiet at both the GEMM and the op-guard tier.
    {
        let mut tr = build_trainer(&t_cfg, ProtectionConfig::full(), 7);
        for _ in 0..2 {
            let out = tr.train_step(&batch);
            fp_total += 1;
            if out.report.detections > 0 || out.report.op_detections > 0 {
                fp_detections += 1;
            }
        }
    }
    println!("-- fault-free sweep: {fp_detections} detections across {fp_total} trials --");
    if fp_detections > 0 {
        failures.push(format!(
            "false positives: {fp_detections} detections in {fp_total} fault-free trials"
        ));
    }

    // ---- artifact + floors -----------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"trials_per_cell\": {trials}, \"kv_trials\": {kv_trials},"
    );
    for s in &json_sections {
        json.push_str(s);
        json.push('\n');
    }
    let _ = writeln!(
        json,
        "  \"false_positives\": {{\"trials\": {fp_total}, \"detections\": {fp_detections}}},"
    );
    let _ = writeln!(
        json,
        "  \"floors\": {{\"fp_detections\": 0, \"extreme_verify_detection\": 1.0, \"extreme_verify_correction\": 1.0, \"moment_detection\": 1.0, \"moment_heal\": 1.0, \"kv_extreme_detection\": 1.0, \"e2e_extreme_detection\": 1.0}}\n}}"
    );
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!("wrote BENCH_faults.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("fault-campaign floors: OK");
}
