//! Fixture-driven behaviour tests: every bad fixture must trip exactly
//! the lints it was seeded with, and the tricky/suppressed fixtures must
//! scan clean. The fixtures live as inert `.rs` files under
//! `tests/fixtures/` (cargo does not compile test subdirectories) so the
//! snippets read like the real code they imitate.

use attn_lint::scan_source;

/// Scan a fixture under the given workspace-relative path (the path
/// drives per-crate lint scoping) and return the lint names found.
fn lints(rel: &str, src: &str) -> Vec<&'static str> {
    let (findings, _) = scan_source(rel, src);
    findings.iter().map(|f| f.lint).collect()
}

fn count(names: &[&str], lint: &str) -> usize {
    names.iter().filter(|&&n| n == lint).count()
}

#[test]
fn unguarded_gemm_catches_free_calls_not_methods_or_tests() {
    let src = include_str!("fixtures/unguarded_gemm_bad.rs");
    let names = lints("crates/model/src/fixture.rs", src);
    assert_eq!(
        count(&names, "unguarded-gemm"),
        3,
        "two raw `*_into` calls and the allocating `matmul`: {names:?}"
    );
    assert_eq!(
        names.len(),
        3,
        "method form, exempt `Linear::forward` and test call must not flag: {names:?}"
    );
}

#[test]
fn unguarded_gemm_respects_the_kernel_crate_whitelist() {
    let src = include_str!("fixtures/unguarded_gemm_bad.rs");
    let names = lints("crates/tensor/src/fixture.rs", src);
    assert_eq!(count(&names, "unguarded-gemm"), 0, "{names:?}");
}

#[test]
fn panic_reach_catches_the_panic_surface_behind_an_entry() {
    let src = include_str!("fixtures/panic_reach_bad.rs");
    let names = lints("crates/serve/src/fixture.rs", src);
    assert_eq!(
        count(&names, "panic-reach"),
        4,
        "indexing + unwrap + expect + panic!: {names:?}"
    );
    assert_eq!(
        names.len(),
        4,
        "assert-macro args and vec![…] must not flag: {names:?}"
    );
    // Every finding renders the entry → sink call path.
    let (findings, _) = scan_source("crates/serve/src/fixture.rs", src);
    assert!(
        findings
            .iter()
            .all(|f| f.to_string().contains("Gateway::admit → brittle")),
        "path traces name the route: {findings:?}"
    );
}

#[test]
fn panic_reach_needs_a_serving_entry_to_fire() {
    // Detach the entry: rename the method so no serving entry exists.
    let src = include_str!("fixtures/panic_reach_bad.rs").replace("fn admit", "fn review");
    let names = lints("crates/serve/src/fixture.rs", &src);
    assert_eq!(count(&names, "panic-reach"), 0, "{names:?}");
}

#[test]
fn float_eq_catches_raw_literal_compares_outside_tests() {
    let src = include_str!("fixtures/float_eq_bad.rs");
    let names = lints("crates/model/src/fixture.rs", src);
    assert_eq!(
        count(&names, "float-eq"),
        3,
        "==, reversed !=, and negative literal: {names:?}"
    );
    assert_eq!(
        names.len(),
        3,
        "test-region compares must not flag: {names:?}"
    );
}

#[test]
fn tricky_lexing_produces_no_findings() {
    let src = include_str!("fixtures/tricky_lexing_clean.rs");
    let (findings, suppressed) = scan_source("crates/core/src/fixture.rs", src);
    assert!(
        findings.is_empty(),
        "strings/chars/comments must be inert: {findings:?}"
    );
    assert_eq!(suppressed, 0, "nothing to suppress");
}

#[test]
fn justified_allows_suppress_and_are_counted() {
    let src = include_str!("fixtures/suppressed_clean.rs");
    let (findings, suppressed) = scan_source("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 2, "trailing + standalone-above allow");
}

#[test]
fn unused_allow_is_a_finding() {
    let src = include_str!("fixtures/unused_allow_bad.rs");
    let names = lints("crates/core/src/fixture.rs", src);
    assert_eq!(names, vec!["unused-allow"]);
}

#[test]
fn unknown_and_unjustified_allows_do_not_suppress() {
    let src = include_str!("fixtures/unknown_allow_bad.rs");
    let (findings, suppressed) = scan_source("crates/core/src/fixture.rs", src);
    let mut names: Vec<_> = findings.iter().map(|f| f.lint).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        vec!["float-eq", "missing-justification", "unknown-allow"],
        "the bad allows are findings AND the target still flags"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn report_ordering_is_deterministic_across_input_order() {
    let src = "pub fn chk(x: f32, y: f32) -> bool {\n    x == 0.5 || y != 1.5\n}\n";
    let zeta = ("crates/zeta/src/a.rs".to_string(), src.to_string());
    let alpha = ("crates/alpha/src/a.rs".to_string(), src.to_string());
    let fwd = attn_lint::scan_sources(&[zeta.clone(), alpha.clone()]);
    let rev = attn_lint::scan_sources(&[alpha, zeta]);
    let key = |r: &attn_lint::Report| -> Vec<(String, u32, u32, &'static str)> {
        r.findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.col, f.lint))
            .collect()
    };
    let (f1, f2) = (key(&fwd), key(&rev));
    assert_eq!(f1, f2, "input order must not leak into the report");
    assert!(
        f1.windows(2).all(|w| w[0] <= w[1]),
        "findings sorted by (file, line, col, lint): {f1:?}"
    );
    assert!(!f1.is_empty(), "the seeded float compares must flag");
}

#[test]
fn findings_render_with_the_documented_format() {
    let src = include_str!("fixtures/float_eq_bad.rs");
    let (findings, _) = scan_source("crates/model/src/fixture.rs", src);
    let line = findings[0].to_string();
    assert!(
        line.starts_with("crates/model/src/fixture.rs:5:"),
        "file:line:col prefix: {line}"
    );
    assert!(
        line.contains(" · float-eq · "),
        "interpunct separators: {line}"
    );
}
