//! The contract gate: the workspace's own tree must scan clean.
//!
//! This is what turns the lint from a tool into an invariant — `cargo
//! test` (tier 1) fails the moment anyone reintroduces an unguarded GEMM,
//! a panic construct reachable from a serving entry or a raw float
//! compare without a justified allow (or allow-path), or an op on the
//! forward/decode/train paths that pushes the unguarded count past
//! `MAX_UNGUARDED_OPS`.

#[test]
fn the_workspace_tree_is_clean() {
    let root = std::path::Path::new(
        &std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR"),
    )
    .join("../..");
    let tree = attn_lint::prepare_tree(&root).expect("workspace scan");
    let report = attn_lint::scan_prepared(&tree);
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
        report.resolution_rate() >= 0.90,
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
    // The coverage ratchet the binary enforces under `--coverage`, over the
    // same prepared tree.
    let cov = attn_lint::run_coverage_prepared(&tree);
    assert!(
        !cov.ops.is_empty(),
        "the coverage walk found no ops — its entries stopped resolving"
    );
    assert!(
        cov.ops_unguarded() <= attn_lint::MAX_UNGUARDED_OPS,
        "FLOOR: {} unguarded ops > {}:\n{}",
        cov.ops_unguarded(),
        attn_lint::MAX_UNGUARDED_OPS,
        attn_lint::report::render_coverage_text(&cov)
    );
}
