//! The contracts clippy holds, pinned to the source they cover.
//!
//! `cargo clippy --workspace --all-targets -- -D warnings` enforces three
//! workspace contracts: total ABFT coverage (`disallowed-methods` in the
//! root `clippy.toml`), no-panic serving (restriction lints denied in the
//! `attn_serve` and `attn_infer` roots) and float hygiene (`float_cmp`
//! denied in every library root). rustc holds a fourth: `unsafe` lives in
//! one module of `attn_tensor` (`unsafe_code` forbidden in every other
//! library root, denied in `attn_tensor`'s). Neither tool can tell when its
//! own configuration falls behind the code, so these tests fail when a new
//! kernel entry is missing from the list or a lint level is dropped from
//! a root.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
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

/// The inner attributes of a crate root, whitespace and comments dropped:
/// `#![deny(unsafe_code)]` reads `deny(unsafe_code)`.
fn inner_attrs(lib_rs: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(lib_rs).expect("library root");
    let code: String = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
        .collect();
    code.split("#![")
        .skip(1)
        .filter_map(|attr| attr.split_once(")]").map(|(a, _)| format!("{a})")))
        .collect()
}

/// The lints a crate root denies in `#![cfg_attr(not(test), deny(...))]`
/// inner attributes.
fn non_test_denies(lib_rs: &Path) -> Vec<String> {
    inner_attrs(lib_rs)
        .iter()
        .filter_map(|attr| {
            attr.strip_prefix("cfg_attr(not(test),deny(")?
                .strip_suffix("))")
        })
        .flat_map(|lints| lints.split(',').map(str::to_string).collect::<Vec<_>>())
        .collect()
}

#[test]
fn every_library_root_carries_its_lint_levels() {
    let mut roots: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("crates/ entry").path().join("src/lib.rs"))
        .filter(|p| p.exists())
        .collect();
    roots.push(root().join("src/lib.rs"));
    assert!(
        roots.len() >= 10,
        "found only {} library roots",
        roots.len()
    );

    for lib in &roots {
        assert!(
            non_test_denies(lib)
                .iter()
                .any(|l| l == "clippy::float_cmp"),
            "{} must deny clippy::float_cmp outside tests",
            lib.display()
        );
        // `attn_tensor` allows `unsafe` in its `lanes::arch` module alone,
        // which `forbid` would not let it do.
        let level = if lib.ends_with("crates/tensor/src/lib.rs") {
            "deny(unsafe_code)"
        } else {
            "forbid(unsafe_code)"
        };
        assert!(
            inner_attrs(lib).iter().any(|a| a == level),
            "{} must carry #![{level}]",
            lib.display()
        );
    }

    const PANIC_LINTS: [&str; 7] = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::indexing_slicing",
    ];
    for krate in ["serve", "infer"] {
        let denied = non_test_denies(&root().join("crates").join(krate).join("src/lib.rs"));
        let missing: Vec<&str> = PANIC_LINTS
            .into_iter()
            .filter(|l| !denied.iter().any(|d| d == l))
            .collect();
        assert!(
            missing.is_empty(),
            "attn_{krate} must deny every panic construct outside tests; missing {missing:?}"
        );
    }
}
