//! End-to-end proof for `target-feature-reach` over the mini-tree under
//! `tests/fixtures/tfr/`: a `#[target_feature]` kernel, a detected-gate
//! dispatcher (clean), and a hasty ungated caller — the tree's single
//! seeded finding. The binary must exit nonzero on it, and gating the
//! hasty call must drain the tree clean.

use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(&std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/tfr")
}

const FIXTURE: &str = include_str!("fixtures/tfr/crates/simd/src/lib.rs");

#[test]
fn only_the_ungated_call_site_flags() {
    let report = attn_lint::run_check(&fixture_root()).expect("fixture scan");
    let names: Vec<_> = report.findings.iter().map(|f| f.lint).collect();
    assert_eq!(
        names,
        vec!["target-feature-reach"],
        "gated dispatch and the kernel itself must stay clean: {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert!(f.message.contains("sum_avx2"), "names the kernel: {f}");
    // Anchored on the hasty caller's call site (4-space indent), not the
    // gated dispatch (8-space indent).
    let hasty = FIXTURE
        .lines()
        .position(|l| l == "    unsafe { sum_avx2(xs) }")
        .expect("hasty call line")
        + 1;
    assert_eq!(f.line as usize, hasty, "anchor: {f}");
    // The fixture's own SAFETY hygiene is total — the only finding is
    // the dispatch one.
    assert!(report.unsafe_sites >= 3, "kernel fn + two call blocks");
    assert_eq!(report.safety_coverage(), 1.0);
}

#[test]
fn gating_the_hasty_call_drains_the_tree_clean() {
    let src = FIXTURE.replace(
        "    // SAFETY: assumes AVX2 unconditionally — this is the seeded bug.\n    \
         unsafe { sum_avx2(xs) }",
        "    if is_x86_feature_detected!(\"avx2\") {\n        \
         // SAFETY: the detected gate above proves AVX2 is present.\n        \
         unsafe { sum_avx2(xs) }\n    } else {\n        sum_scalar(xs)\n    }",
    );
    assert_ne!(src, FIXTURE, "replacement must hit");
    let report = attn_lint::scan_sources(&[("crates/simd/src/lib.rs".to_string(), src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn an_allow_path_vouches_for_the_hasty_call() {
    let src = FIXTURE.replace(
        "    // SAFETY: assumes AVX2 unconditionally — this is the seeded bug.",
        "    // attn-lint: allow-path(target-feature-reach) — caller pre-verifies AVX2\n    \
         // SAFETY: assumes AVX2 unconditionally — this is the seeded bug.",
    );
    assert_ne!(src, FIXTURE, "replacement must hit");
    let report = attn_lint::scan_sources(&[("crates/simd/src/lib.rs".to_string(), src)]);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn the_binary_exits_nonzero_on_the_ungated_path() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_attn_lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn attn_lint");
    assert!(
        !status.success(),
        "an ungated `#[target_feature]` call path must fail the gate: {status:?}"
    );
}
