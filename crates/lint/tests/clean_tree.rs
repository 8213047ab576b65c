//! The contract gate: the workspace's own tree must scan clean.
//!
//! This is what turns the lint from a tool into an invariant — `cargo
//! test` (tier 1) fails the moment anyone reintroduces a panic construct
//! reachable from a serving entry or a raw float compare without a
//! justified allow (or allow-path). ABFT coverage is clippy's
//! (`disallowed-methods` in the root `clippy.toml`); the second test pins
//! that list to the kernel surface it has to cover.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(&std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR"))
        .join("../..")
}

#[test]
fn the_workspace_tree_is_clean() {
    let report = attn_lint::run_check(&root()).expect("workspace scan");
    assert!(
        report.files_scanned >= 100,
        "scan walked only {} files — source discovery is broken",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "contract violations in the tree:\n{}",
        attn_lint::report::render_text(&report)
    );
    assert!(
        report.suppressions_used > 0,
        "the tree carries justified allows; zero honoured means directive parsing broke"
    );
    assert!(
        report.resolution_rate() >= attn_lint::MIN_RESOLUTION_RATE,
        "call resolution collapsed to {:.3} ({} of {} calls) — the reach \
         lint is flying blind",
        report.resolution_rate(),
        report.calls_resolved,
        report.calls_total
    );
    assert!(
        !report.entry_points.is_empty(),
        "no serving entries found — panic-reach has nothing to anchor on"
    );
}

/// Names of the top-level `pub fn`s of one source file.
fn pub_fns(rel: &str) -> Vec<String> {
    let src = std::fs::read_to_string(root().join(rel)).expect("kernel source");
    src.lines()
        .filter_map(|l| l.strip_prefix("pub fn "))
        .map(|rest| {
            rest.split(['(', '<'])
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// A written list does not follow new kernels the way a name pattern did:
/// every raw GEMM entry (`matmul*`, `gemm_encode_*`, less the
/// `matmul_naive` reference) and every plain op with a `*_checked` twin in
/// `guard.rs` must be one of `clippy.toml`'s disallowed methods.
#[test]
fn clippy_disallows_every_raw_kernel_entry() {
    let toml = std::fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml");
    let methods = toml
        .split_once("disallowed-methods")
        .expect("clippy.toml has a disallowed-methods list")
        .1;
    let listed: Vec<&str> = methods
        .split("path = \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();

    let gemm = pub_fns("crates/tensor/src/gemm.rs")
        .into_iter()
        .filter(|f| {
            (f.starts_with("matmul") && f != "matmul_naive") || f.starts_with("gemm_encode_")
        })
        .map(|f| format!("attn_tensor::gemm::{f}"));
    let guarded = pub_fns("crates/tensor/src/guard.rs");
    let ops = pub_fns("crates/tensor/src/ops.rs")
        .into_iter()
        .filter(|op| {
            guarded
                .iter()
                .any(|g| g.contains("_checked") && g.replace("_checked", "") == *op)
        })
        .map(|f| format!("attn_tensor::ops::{f}"));
    let required: Vec<String> = gemm.chain(ops).collect();
    assert!(
        required.len() >= 15,
        "found only {} kernel entries — the source scan is broken: {required:?}",
        required.len()
    );
    let missing: Vec<&String> = required
        .iter()
        .filter(|r| !listed.contains(&r.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "raw entries missing from clippy.toml's disallowed-methods: {missing:?}"
    );
}
