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
//! The counting allocator is the one `unsafe` outside `attn_tensor`, so it
//! takes the same lint levels: rustc's `unsafe_op_in_unsafe_fn` and
//! clippy's `undocumented_unsafe_blocks`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use attnchecker_repro::abft::config::ProtectionConfig;
use attnchecker_repro::infer::{DecodeEngine, Sampling};
use attnchecker_repro::model::model::{ModelConfig, TransformerModel};
use attnchecker_repro::model::{SyntheticMrpc, Trainer};
use attnchecker_repro::serve::{Gateway, GatewayConfig, Request, TraceEvent};
use attnchecker_repro::tensor::rng::TensorRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // The key can be gone during thread teardown; those calls are nobody's.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// `Cell` with no destructor, so bumping it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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

/// The second of two identical batch-4 training steps.
fn warm_train_step(protection: ProtectionConfig) -> u64 {
    let mut cfg = ModelConfig::bert_base();
    cfg.hidden = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    let ds = SyntheticMrpc::generate(16, cfg.vocab, 16, 1);
    let batch: Vec<_> = ds.examples.iter().take(4).collect();
    let model = TransformerModel::new(cfg, protection, &mut TensorRng::seed_from(77));
    let mut trainer = Trainer::new(model, 1e-3);
    trainer.set_parallelism(1);
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
    ("16 warm decode steps", warm_decode_steps, [1090, 1090]),
    ("1 warm training step", warm_train_step, [908, 908]),
    (
        "gateway trace with parking",
        warm_gateway_trace,
        [3383, 3383],
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
