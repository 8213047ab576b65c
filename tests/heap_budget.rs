//! The heap-allocation budget of the steady-state paths, measured.
//!
//! "Steady state stays off the allocator" has two layers. Kernel scratch
//! is *arena-miss-free*: a warm workload never grows the workspace arena
//! (`workspace::thread_alloc_events`, pinned by the unit tests beside each
//! path and by `tensor.ws_allocs_per_op` in the benchmark). Everything
//! above the kernels — owned result matrices, tapes, per-step handle
//! vectors, reports — does allocate, and a name-matching lint could not
//! bound it (it passed an extra `Matrix::zeros` in `decode_step`). This
//! suite counts it instead: a counting global allocator, one number per
//! path, each pinned by a ceiling that may only be lowered. Everything runs
//! on the test thread at parallelism 1 with fixed seeds, so the counts are
//! exact (and equal in debug and release): the test fails on any count
//! other than its ceiling, so a single new allocation per step shows, and a
//! change that removes one must lower the ceiling with it.
//!
//! The same allocator keeps a second per-thread number, the bytes live on
//! the heap, and a second test pins what a served model holds: the bytes a
//! freshly built `DecodeEngine` and `Gateway` keep live, exact ceilings
//! that may only be lowered, and no more than twice the weight bytes
//! (a model built to serve holds its weights, not the two AdamW moments a
//! trainer keeps beside them, nor a gradient).
//!
//! A third per-thread number, the high-water mark of the live bytes, pins
//! what a checkpoint costs in memory: the peak over the bytes already live
//! while `CheckpointManager` saves a trained model's state to a file and
//! loads it back, an exact ceiling that may only be lowered, and a small
//! fraction of the snapshot's size (both directions stream through the
//! file; neither holds the snapshot whole).
//!
//! The same two byte numbers pin training: what a warm trainer holds
//! between steps (its weights, the AdamW moments and their digests; the
//! gradient accumulator lives only inside a step), and the peak a warm
//! step holds above that, both exact ceilings that may only be lowered.
//!
//! The counting allocator is the one `unsafe` outside `attn_tensor`, so it
//! takes the same lint levels: rustc's `unsafe_op_in_unsafe_fn` and
//! clippy's `undocumented_unsafe_blocks`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use attnchecker_repro::abft::config::ProtectionConfig;
use attnchecker_repro::ckpt::CheckpointManager;
use attnchecker_repro::infer::{DecodeEngine, Sampling};
use attnchecker_repro::model::model::{ModelConfig, TransformerModel};
use attnchecker_repro::model::{HasParams, SyntheticMrpc, Trainer};
use attnchecker_repro::serve::{Gateway, GatewayConfig, Request, TraceEvent};
use attnchecker_repro::tensor::rng::TensorRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since `peak_bytes_in` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // The key can be gone during thread teardown; those calls are nobody's.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|c| {
        let now = c.get() + delta;
        c.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// `Cell`s with no destructor, so bumping them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

/// Heap bytes the value `build` returns holds live on this thread.
fn bytes_held_by<T>(build: impl FnOnce() -> T) -> i64 {
    let before = LIVE.get();
    let built = build();
    let held = LIVE.get() - before;
    drop(built);
    held
}

/// The most heap bytes live on this thread while `f` runs, over those live
/// when it starts.
fn peak_bytes_in(f: impl FnOnce()) -> i64 {
    let base = LIVE.get();
    PEAK.set(base);
    f();
    PEAK.get() - base
}

fn lm_model(protection: ProtectionConfig) -> TransformerModel {
    let mut cfg = ModelConfig::gpt2();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.vocab = 48;
    cfg.num_classes = 48;
    cfg.max_seq = 64;
    TransformerModel::new(cfg, protection, &mut TensorRng::seed_from(2025))
}

const DECODE_STEPS: usize = 16;

/// `DECODE_STEPS` greedy steps of a second session, after a first one of
/// the same length warmed the arena and returned its KV blocks to it.
fn warm_decode_steps(protection: ProtectionConfig) -> u64 {
    let mut engine = DecodeEngine::new(lm_model(protection));
    let prompt = [3usize, 11, 7, 29, 5, 40, 4, 9];
    let run = |engine: &mut DecodeEngine| {
        let mut session = engine.open_session(&prompt, 7);
        allocs_in(|| {
            for _ in 0..DECODE_STEPS {
                engine.step(&mut session, Sampling::Greedy);
            }
        })
    };
    run(&mut engine);
    run(&mut engine)
}

/// The training shape every training path here runs: a two-block BERT at
/// hidden 32 stepping at parallelism 1, and the dataset whose first four
/// examples are its batch.
fn small_trainer(protection: ProtectionConfig) -> (Trainer, SyntheticMrpc) {
    let mut cfg = ModelConfig::bert_base();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    let ds = SyntheticMrpc::generate(16, cfg.vocab, 16, 1);
    let model = TransformerModel::new(cfg, protection, &mut TensorRng::seed_from(77));
    let mut trainer = Trainer::new(model, 1e-3);
    trainer.set_parallelism(1);
    (trainer, ds)
}

/// The second of two identical batch-4 training steps.
fn warm_train_step(protection: ProtectionConfig) -> u64 {
    let (mut trainer, ds) = small_trainer(protection);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    trainer.train_step(&batch);
    allocs_in(|| {
        trainer.train_step(&batch);
    })
}

/// A five-request trace under a KV-row budget tight enough to park and
/// unpark, replayed on a second gateway after a first one warmed the arena.
fn warm_gateway_trace(protection: ProtectionConfig) -> u64 {
    let trace: Vec<TraceEvent> = [
        (0u64, vec![3usize, 11, 7, 29, 5], 5usize, 1u64),
        (0, vec![40, 4, 9, 13, 2, 8], 4, 2),
        (2, vec![17, 1, 2, 3, 4, 5, 6], 6, 3),
        (5, vec![9, 9, 9, 9], 5, 4),
        (6, vec![5, 23, 2, 30, 31, 7], 4, 5),
    ]
    .into_iter()
    .map(|(at_tick, prompt, max_new, seed)| TraceEvent {
        at_tick,
        request: Request {
            prompt,
            max_new,
            seed,
        },
    })
    .collect();
    let run = || {
        let cfg = GatewayConfig {
            max_live: 3,
            kv_row_budget: 14,
            prefill_chunk: 2,
            sampling: Sampling::Temperature(0.9),
            workers: 1,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(lm_model(protection), cfg);
        let n = allocs_in(|| {
            let out = gw.run_trace(&trace);
            assert_eq!(out.completions.len(), trace.len());
        });
        let stats = gw.stats();
        assert!(
            stats.park_events > 0 && stats.unpark_events > 0,
            "the trace must park and unpark: {stats:?}"
        );
        n
    };
    run();
    run()
}

/// One measured path and its committed ceiling.
type Path = (&'static str, fn(ProtectionConfig) -> u64, [u64; 2]);

/// `(path, measure, [protected, unprotected] ceiling)`. A ceiling is the
/// exact count measured when it was committed: a change that removes
/// allocations must lower it to the new count, never raise it to make room.
const BUDGET: [Path; 3] = [
    ("16 warm decode steps", warm_decode_steps, [1074, 1074]),
    ("1 warm training step", warm_train_step, [884, 884]),
    (
        "gateway trace with parking",
        warm_gateway_trace,
        [3336, 3336],
    ),
];

#[test]
fn steady_state_paths_stay_within_their_heap_budget() {
    let mut off = Vec::new();
    for (path, measure, ceilings) in BUDGET {
        for (protection, ceiling) in [ProtectionConfig::full(), ProtectionConfig::off()]
            .into_iter()
            .zip(ceilings)
        {
            let n = measure(protection);
            let mode = if protection.is_off() { "off" } else { "on" };
            println!("heap_budget: {path}, protection {mode}: {n} allocations (ceiling {ceiling})");
            if n > ceiling {
                off.push(format!("{path}, protection {mode}: {n} > {ceiling}"));
            } else if n < ceiling {
                off.push(format!(
                    "{path}, protection {mode}: {n} < {ceiling}, lower the ceiling to {n}"
                ));
            }
        }
    }
    assert!(
        off.is_empty(),
        "heap budget off its exact count:\n{}",
        off.join("\n")
    );
}

/// Weight bytes of the served model: four per parameter scalar.
fn weight_bytes() -> i64 {
    4 * lm_model(ProtectionConfig::full()).param_count() as i64
}

fn engine_bytes() -> i64 {
    bytes_held_by(|| DecodeEngine::new(lm_model(ProtectionConfig::full())))
}

fn gateway_bytes() -> i64 {
    let cfg = GatewayConfig {
        workers: 1,
        ..GatewayConfig::default()
    };
    bytes_held_by(|| Gateway::new(lm_model(ProtectionConfig::full()), cfg))
}

/// `(system, measure, ceiling)`: the heap bytes a freshly built serving
/// system holds live over `lm_model(full())`. A ceiling is the exact count
/// measured when it was committed, and may only be lowered.
type Held = (&'static str, fn() -> i64, i64);

const HELD: [Held; 2] = [
    ("DecodeEngine::new", engine_bytes, 125_517),
    ("Gateway::new", gateway_bytes, 125_517),
];

#[test]
fn a_served_model_holds_only_its_weights() {
    let weights = weight_bytes();
    let mut off = Vec::new();
    for (system, measure, ceiling) in HELD {
        let held = measure();
        println!(
            "heap_budget: {system} holds {held} B ({:.2}× the {weights} weight bytes, ceiling {ceiling})",
            held as f64 / weights as f64
        );
        if held > 2 * weights {
            off.push(format!(
                "{system}: {held} B is more than twice the {weights} weight bytes"
            ));
        }
        if held > ceiling {
            off.push(format!("{system}: {held} > {ceiling}"));
        } else if held < ceiling {
            off.push(format!(
                "{system}: {held} < {ceiling}, lower the ceiling to {held}"
            ));
        }
    }
    assert!(
        off.is_empty(),
        "served systems off their byte budget:\n{}",
        off.join("\n")
    );
}

/// A protected trainer after two warm batch-4 steps: `(weight bytes,
/// bytes the trainer frees when dropped, peak bytes live during a third
/// step over those already live)`. Dropping, not building, measures what
/// it holds: the workspace arena the steps warmed stays with the thread.
fn trainer_bytes() -> (i64, i64, i64) {
    let (mut trainer, ds) = small_trainer(ProtectionConfig::full());
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    trainer.train_step(&batch);
    trainer.train_step(&batch);
    let weights = 4 * trainer.model.param_count() as i64;
    let peak = peak_bytes_in(|| {
        trainer.train_step(&batch);
    });
    let live = LIVE.get();
    drop(trainer);
    (weights, live - LIVE.get(), peak)
}

/// The bytes a warm trainer holds between steps, and the peak a warm step
/// holds above them, as measured when committed; both may only be lowered.
const TRAINER_HELD: i64 = 563_577;
const TRAINER_STEP_PEAK: i64 = 265_249;

#[test]
fn a_trainer_holds_no_gradient_between_steps() {
    let (weights, held, peak) = trainer_bytes();
    println!(
        "heap_budget: a warm trainer holds {held} B ({:.2}× the {weights} weight bytes, ceiling {TRAINER_HELD}); a warm step peaks {peak} B above that (ceiling {TRAINER_STEP_PEAK})",
        held as f64 / weights as f64
    );
    let mut off = Vec::new();
    for (what, n, ceiling) in [
        ("trainer held bytes", held, TRAINER_HELD),
        ("warm step peak", peak, TRAINER_STEP_PEAK),
    ] {
        if n > ceiling {
            off.push(format!("{what}: {n} > {ceiling}"));
        } else if n < ceiling {
            off.push(format!("{what}: {n} < {ceiling}, lower the ceiling to {n}"));
        }
    }
    assert!(
        off.is_empty(),
        "training off its byte budget:\n{}",
        off.join("\n")
    );
}

/// A protected trainer after one batch-4 step, saved by a fresh
/// `CheckpointManager` and loaded back: `(peak bytes live during the save
/// and the load, checkpoint bytes)`. The checkpoint directory's name has a
/// fixed length, since the manager's path buffers count towards the peak.
fn checkpoint_round_trip() -> (i64, usize) {
    let (mut trainer, ds) = small_trainer(ProtectionConfig::full());
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    trainer.train_step(&batch);
    let dir = format!("target/tmp/heap-budget-ckpt-{:010}", std::process::id());
    let mut mgr = CheckpointManager::new(&dir).expect("checkpoint dir");
    let mut bytes = 0;
    let peak = peak_bytes_in(|| {
        bytes = mgr.save(&mut trainer).expect("save").1;
        mgr.load_last(&mut trainer).expect("load");
    });
    let _ = std::fs::remove_dir_all(&dir);
    (peak, bytes)
}

/// The peak bytes a checkpoint save + load holds live over the trainer, as
/// measured when committed; may only be lowered.
const CHECKPOINT_PEAK: i64 = 8_344;

#[test]
fn a_checkpoint_streams_through_the_file() {
    let (peak, bytes) = checkpoint_round_trip();
    println!(
        "heap_budget: checkpoint save + load peaks at {peak} B over the trainer for a {bytes} B snapshot (ceiling {CHECKPOINT_PEAK})"
    );
    assert!(
        peak * 32 < bytes as i64,
        "a checkpoint round trip peaked at {peak} B, not far below the {bytes} B snapshot"
    );
    assert!(
        peak <= CHECKPOINT_PEAK,
        "checkpoint round trip: {peak} > {CHECKPOINT_PEAK}"
    );
    assert!(
        peak >= CHECKPOINT_PEAK,
        "checkpoint round trip: {peak} < {CHECKPOINT_PEAK}, lower the ceiling to {peak}"
    );
}
