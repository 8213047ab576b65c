//! **Decoding engine benchmark** — machine-readable perf trajectory for
//! the ABFT-protected KV-cached serving path.
//!
//! Measures, on an LM-shaped GPT-2 config:
//!
//! * prefill tokens/s (the full protected forward that seeds a session);
//! * decode tokens/s with the KV cache, protected vs unprotected — the
//!   protected/unprotected ratio is the serving-time ABFT overhead (the
//!   single-query image of the paper's Fig 7 training overhead);
//! * the no-cache baseline: re-running the full protected forward over the
//!   grown prefix per token, which is what the repo could do before this
//!   engine existed.
//!
//! Writes `BENCH_decode.json` into the working directory and exits
//! non-zero when a perf floor regresses (cached decode not faster than
//! full recompute; protected decode overhead beyond bound). Set
//! `BENCH_DECODE_TINY=1` for the CI smoke shape (seconds, floors kept
//! conservative).
//!
//! Run: `cargo run --release -p attn_bench --bin bench_decode`

use attn_bench::TextTable;
use attn_infer::{DecodeEngine, Sampling};
use attn_model::model::{ModelConfig, TransformerModel};
use attn_tensor::rng::TensorRng;
use attn_tensor::OpGuard;
use attnchecker::attention::SectionToggles;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;
use std::fmt::Write as _;
use std::time::Instant;

struct Shape {
    cfg: ModelConfig,
    prompt_len: usize,
    decode_len: usize,
    trials: usize,
    /// Cached decode must beat full recompute by at least this factor.
    floor_cached_speedup: f64,
    /// Protected decode may cost at most this multiple of unprotected.
    ceil_protected_ratio: f64,
}

fn shape(tiny: bool) -> Shape {
    let mut cfg = ModelConfig::gpt2();
    if tiny {
        cfg.hidden = 32;
        cfg.heads = 2;
        cfg.layers = 1;
        cfg.vocab = 64;
        cfg.max_seq = 24;
    } else {
        cfg.hidden = 64;
        cfg.heads = 4;
        cfg.layers = 2;
        cfg.vocab = 128;
        cfg.max_seq = 96;
    }
    cfg.num_classes = cfg.vocab; // LM head: sampled ids feed back as inputs
    Shape {
        prompt_len: if tiny { 4 } else { 16 },
        decode_len: if tiny { 8 } else { 48 },
        trials: if tiny { 2 } else { 5 },
        // Cached decode is O(L·d) per token vs O(L·d²+L²·d) for the
        // recompute baseline; the floors leave a wide noise margin below
        // the measured headroom.
        floor_cached_speedup: if tiny { 1.05 } else { 1.3 },
        // The two border rows of a single-query GEMM ride the microkernel's
        // padding lanes next to the 1 data row, and the checksum side has
        // its one-row forms (DESIGN.md, "Where the decode overhead goes"):
        // measured 1.06-1.12x at the full shape, median 1.08 of 25 runs.
        // The ceiling is that median + 0.05 — close enough to fire, so on a
        // shared host the odd whole-process slow phase fires it too (one
        // of those runs read 1.32x): rerun before believing it. The tiny
        // shape times 8 tokens of fixed overhead and is advisory only (see
        // below).
        ceil_protected_ratio: if tiny { 5.0 } else { 1.13 },
        cfg,
    }
}

fn model(cfg: &ModelConfig, protection: ProtectionConfig) -> TransformerModel {
    let mut rng = TensorRng::seed_from(4242);
    TransformerModel::new(cfg.clone(), protection, &mut rng)
}

fn prompt_tokens(cfg: &ModelConfig, len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 67 + 11) % cfg.vocab).collect()
}

/// Fastest wall time (secs) of prefilling `prompt` into a fresh session.
fn time_prefill(engine: &mut DecodeEngine, prompt: &[usize], trials: usize) -> f64 {
    let mut best = f64::INFINITY;
    for t in 0..=trials {
        let t0 = Instant::now();
        let s = engine.open_session(prompt, t as u64);
        let dt = t0.elapsed().as_secs_f64();
        drop(s);
        if t > 0 {
            // iteration 0 is warm-up (arena fill, page faults)
            best = best.min(dt);
        }
    }
    best
}

/// Fastest wall times (secs) of generating `n` tokens on a fresh session
/// of the protected engine and of its unprotected twin. The trials
/// alternate between the two, so a host phase (frequency ramp after
/// start-up, a noisy neighbour) lands on both sides of the floored ratio
/// instead of on whichever side happened to run first.
fn time_decode_pair(
    on: &mut DecodeEngine,
    off: &mut DecodeEngine,
    prompt: &[usize],
    n: usize,
    trials: usize,
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for t in 0..=trials {
        let once = |engine: &mut DecodeEngine| {
            let mut s = engine.open_session(prompt, t as u64);
            let t0 = Instant::now();
            let _ = engine.generate(&mut s, n, Sampling::Greedy);
            t0.elapsed().as_secs_f64()
        };
        let (dt_on, dt_off) = (once(on), once(off));
        if t > 0 {
            // iteration 0 is warm-up (arena fill, page faults)
            best = (best.0.min(dt_on), best.1.min(dt_off));
        }
    }
    best
}

/// Fastest wall time (secs) of generating `n` tokens WITHOUT a KV cache:
/// re-run the full protected forward over the grown prefix per token.
fn time_recompute(m: &TransformerModel, prompt: &[usize], n: usize, trials: usize) -> f64 {
    let mut best = f64::INFINITY;
    for t in 0..=trials {
        let mut tokens = prompt.to_vec();
        let mut report = AbftReport::default();
        let mut rng = TensorRng::seed_from(0); // greedy ignores it
        let t0 = Instant::now();
        for _ in 0..n {
            let (logits, _) = m.forward(&tokens, SectionToggles::all(), None, &mut report);
            // The engine's own sampling, so both paths share one greedy
            // definition (NaN guard included).
            tokens.push(attn_infer::sampling::sample_token(
                &logits,
                Sampling::Greedy,
                &mut rng,
                &OpGuard::off(),
            ));
        }
        let dt = t0.elapsed().as_secs_f64();
        if t > 0 {
            best = best.min(dt);
        }
    }
    best
}

fn main() {
    let tiny = std::env::var("BENCH_DECODE_TINY").is_ok_and(|v| v != "0" && !v.is_empty());
    let sh = shape(tiny);
    let prompt = prompt_tokens(&sh.cfg, sh.prompt_len);

    let mut on = DecodeEngine::new(model(&sh.cfg, ProtectionConfig::full()));
    let mut off = DecodeEngine::new(model(&sh.cfg, ProtectionConfig::off()));
    let recompute_model = model(&sh.cfg, ProtectionConfig::full());

    let prefill_on = time_prefill(&mut on, &prompt, sh.trials);
    let prefill_off = time_prefill(&mut off, &prompt, sh.trials);
    // The floored ratio gets three times the trials: its ceiling sits
    // one noise band above the measurement, not several.
    let (decode_on, decode_off) =
        time_decode_pair(&mut on, &mut off, &prompt, sh.decode_len, 3 * sh.trials);
    let recompute = time_recompute(&recompute_model, &prompt, sh.decode_len, sh.trials);

    let tok_s = |n: usize, secs: f64| n as f64 / secs;
    let prefill_on_ts = tok_s(sh.prompt_len, prefill_on);
    let prefill_off_ts = tok_s(sh.prompt_len, prefill_off);
    let decode_on_ts = tok_s(sh.decode_len, decode_on);
    let decode_off_ts = tok_s(sh.decode_len, decode_off);
    let recompute_ts = tok_s(sh.decode_len, recompute);
    let protected_ratio = decode_on / decode_off;
    let cached_speedup = recompute / decode_on;

    let mut t = TextTable::new(&["path", "protected tok/s", "unprotected tok/s", "ratio"]);
    t.row(&[
        "prefill".into(),
        format!("{prefill_on_ts:.0}"),
        format!("{prefill_off_ts:.0}"),
        format!("{:.2}x", prefill_on / prefill_off),
    ]);
    t.row(&[
        "decode (KV cache)".into(),
        format!("{decode_on_ts:.0}"),
        format!("{decode_off_ts:.0}"),
        format!("{protected_ratio:.2}x"),
    ]);
    t.row(&[
        "decode (full recompute)".into(),
        format!("{recompute_ts:.0}"),
        "-".into(),
        format!("{cached_speedup:.2}x slower than cached"),
    ]);
    println!(
        "== ABFT-protected decoding, {} (hidden {}, layers {}, prompt {}, +{} tokens{}) ==\n{}",
        sh.cfg.name,
        sh.cfg.hidden,
        sh.cfg.layers,
        sh.prompt_len,
        sh.decode_len,
        if tiny { ", tiny smoke shape" } else { "" },
        t.render()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"shape\": {{\"hidden\": {}, \"heads\": {}, \"layers\": {}, \"vocab\": {}, \"prompt\": {}, \"decode\": {}, \"tiny\": {}}},",
        sh.cfg.hidden, sh.cfg.heads, sh.cfg.layers, sh.cfg.vocab, sh.prompt_len, sh.decode_len, tiny
    );
    let _ = writeln!(
        json,
        "  \"prefill\": {{\"protected_tok_s\": {prefill_on_ts:.1}, \"unprotected_tok_s\": {prefill_off_ts:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"decode\": {{\"protected_tok_s\": {decode_on_ts:.1}, \"unprotected_tok_s\": {decode_off_ts:.1}, \"protected_ratio\": {protected_ratio:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"recompute\": {{\"protected_tok_s\": {recompute_ts:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"cached_speedup_vs_recompute\": {cached_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"floors\": {{\"cached_speedup_min\": {:.2}, \"protected_ratio_max\": {:.2}}}\n}}",
        sh.floor_cached_speedup, sh.ceil_protected_ratio
    );
    std::fs::write("BENCH_decode.json", &json).expect("write BENCH_decode.json");
    println!("wrote BENCH_decode.json");

    // Perf floors — enforced, not just recorded (the bench_gemm pattern).
    // In the tiny CI smoke shape only 8 tokens are timed, so wall-clock
    // ratios sit inside shared-runner noise: the speed floors degrade to
    // advisory warnings there, while the degenerate-throughput check (did
    // the engine actually decode?) always hard-fails.
    let enforce_speed = !tiny;
    let mut failed = false;
    if cached_speedup < sh.floor_cached_speedup {
        let tag = if enforce_speed {
            "FAIL"
        } else {
            "WARN (advisory in tiny mode)"
        };
        eprintln!(
            "{tag}: KV-cached decode below {:.2}x full recompute ({cached_speedup:.2}x)",
            sh.floor_cached_speedup
        );
        failed |= enforce_speed;
    }
    if protected_ratio > sh.ceil_protected_ratio {
        let tag = if enforce_speed {
            "FAIL"
        } else {
            "WARN (advisory in tiny mode)"
        };
        eprintln!(
            "{tag}: protected decode overhead beyond {:.2}x unprotected ({protected_ratio:.2}x)",
            sh.ceil_protected_ratio
        );
        failed |= enforce_speed;
    }
    if !(decode_on_ts.is_finite() && decode_on_ts > 0.0) {
        eprintln!("FAIL: degenerate decode throughput {decode_on_ts}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "perf floors: OK (cached {cached_speedup:.2}x recompute, protected {protected_ratio:.2}x unprotected)"
    );
}
