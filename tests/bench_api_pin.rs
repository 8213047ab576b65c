//! Pins the benchmark's adapter (`benchmark/src/api.rs`) to the workspace
//! API: the benchmark is a package of its own that tier-1 never builds, so
//! compiling its one repo-facing file here makes `cargo test` fail the
//! moment a rename or signature change would break the next benchmark run.

#[allow(dead_code, unused_imports)]
#[path = "../benchmark/src/api.rs"]
mod api;

#[test]
fn benchmark_adapter_compiles_against_this_tree() {
    assert_eq!(api::train_config(true).hidden, 32);
}
