//! The contracts clippy holds, pinned to the source they cover.
//!
//! `cargo clippy --workspace --all-targets -- -D warnings` enforces four
//! workspace contracts: determinism (`disallowed-types` in the root
//! `clippy.toml`), the GEMM half of total ABFT coverage
//! (`disallowed-methods` there), no-panic serving (restriction lints
//! denied in the `attn_serve` and `attn_infer` roots) and float hygiene
//! (`float_cmp` denied in every library root). rustc holds two more: the
//! non-GEMM half of total ABFT coverage (the plain ops are crate-private
//! in `attn_tensor`) and `unsafe` in one module of `attn_tensor`
//! (`unsafe_code` forbidden in every other library root, denied in
//! `attn_tensor`'s). Neither tool can tell when its own configuration falls
//! behind the code, so these tests fail when a new kernel entry is missing
//! from the list, a plain op is made public again, a lint level is dropped
//! from a root, or a file opts out of the disallowed types.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Names of the fns of one source file declared with the line prefix
/// `vis` (`"pub fn "`, `"    pub(crate) fn "`, …).
fn fns(rel: &str, vis: &str) -> Vec<String> {
    let src = std::fs::read_to_string(root().join(rel)).expect("kernel source");
    src.lines()
        .filter_map(|l| l.strip_prefix(vis))
        .map(|rest| {
            rest.split(['(', '<'])
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// Total ABFT coverage is held by two tools. rustc's privacy check holds
/// the non-GEMM half: every `ops.rs` op with a `*_checked` twin in
/// `guard.rs` (or that `guard.rs` wraps) and `Matrix::add` are
/// `pub(crate)`, so no other crate can call them. Clippy holds the GEMM
/// half: `clippy.toml`'s `disallowed-methods` is exactly the public raw
/// GEMM entries of `gemm.rs` (`matmul*` less the `matmul_naive`
/// reference, `gemm_encode_*`), so a new public kernel fails here until
/// it is listed, and a plain op made `pub` again fails here too.
#[test]
fn clippy_disallows_every_raw_kernel_entry() {
    let toml = std::fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml");
    let methods = toml
        .split_once("disallowed-methods")
        .expect("clippy.toml has a disallowed-methods list")
        .1;
    let mut listed: Vec<String> = methods
        .split("path = \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect();
    listed.sort();

    let mut gemm: Vec<String> = fns("crates/tensor/src/gemm.rs", "pub fn ")
        .into_iter()
        .filter(|f| {
            (f.starts_with("matmul") && f != "matmul_naive") || f.starts_with("gemm_encode_")
        })
        .map(|f| format!("attn_tensor::gemm::{f}"))
        .collect();
    gemm.sort();
    let mut expected: Vec<String> = [
        "matmul",
        "matmul_nt",
        "matmul_tn",
        "matmul_into",
        "matmul_paged_into",
        "matmul_nt_paged_into",
        "gemm_encode_cols_into",
        "gemm_encode_cols_paged_into",
    ]
    .iter()
    .map(|f| format!("attn_tensor::gemm::{f}"))
    .collect();
    expected.sort();
    assert_eq!(gemm, expected, "gemm.rs's public raw entries changed");
    assert_eq!(
        listed, expected,
        "clippy.toml's disallowed-methods must be exactly the public GEMM entries"
    );

    // The plain ops: every `ops.rs` fn a guarded twin names (strip
    // `_checked`) or `guard.rs` imports from `crate::ops`.
    let read = |rel: &str| std::fs::read_to_string(root().join(rel)).expect("tensor source");
    let (ops_src, guard_src) = (
        read("crates/tensor/src/ops.rs"),
        read("crates/tensor/src/guard.rs"),
    );
    let twins: Vec<String> = fns("crates/tensor/src/guard.rs", "pub fn ")
        .into_iter()
        .filter(|g| g.contains("_checked"))
        .map(|g| g.replace("_checked", ""))
        .collect();
    let wrapped: String = guard_src
        .split_once("use crate::ops::{")
        .and_then(|(_, rest)| rest.split_once('}'))
        .map(|(names, _)| names.to_string())
        .unwrap_or_default();
    let mut plain: Vec<String> = twins
        .into_iter()
        .chain(wrapped.split(',').map(|n| n.trim().to_string()))
        .filter(|n| !n.is_empty() && ops_src.contains(&format!("fn {n}(")))
        .collect();
    plain.sort();
    plain.dedup();
    assert!(
        plain.len() >= 6,
        "found only {} guarded plain ops — the source scan is broken: {plain:?}",
        plain.len()
    );
    let private = fns("crates/tensor/src/ops.rs", "pub(crate) fn ");
    let exposed: Vec<&String> = plain.iter().filter(|op| !private.contains(op)).collect();
    assert!(
        exposed.is_empty(),
        "plain ops with a guarded twin must be `pub(crate) fn` in ops.rs: {exposed:?}"
    );
    let matrix_add = fns("crates/tensor/src/matrix.rs", "    pub(crate) fn ");
    assert!(
        matrix_add.iter().any(|f| f == "add"),
        "Matrix::add must stay pub(crate): residual_add_checked is the public add"
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

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The determinism contract has no exemptions: no source file may `allow`
/// or `expect` the disallowed-types lint, on an item or crate-wide, bare
/// or inside `cfg_attr`.
#[test]
fn nothing_opts_out_of_the_disallowed_types() {
    // Spelled in two halves so this file does not match its own scan.
    let lint = ["clippy::", "disallowed_types"].concat();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(
        files.len() >= 100,
        "found only {} source files",
        files.len()
    );
    let opted_out: Vec<String> = files
        .iter()
        .filter(|file| {
            let src: String = std::fs::read_to_string(file)
                .expect("source file")
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
            src.split('#')
                .filter_map(|attr| attr.split_once(")]").map(|(a, _)| a))
                .any(|a| (a.contains("allow(") || a.contains("expect(")) && a.contains(&lint))
        })
        .map(|file| file.display().to_string())
        .collect();
    assert!(
        opted_out.is_empty(),
        "{lint} must not be allowed or expected anywhere: {opted_out:?}"
    );
}
