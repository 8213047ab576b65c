//! The real-tree mutation table: a lint ships only with a row here that
//! shows it firing on a violation seeded into the workspace's *own*
//! sources — fixtures prove a matcher works on text written for it, this
//! proves the contract is held where it matters. Each row edits one file
//! of the tree in memory (nothing is written or compiled) and names the
//! lints that must fire in that file; any other finding fails the row.
//! Determinism and `unsafe` hygiene have no rows: their violations are
//! compile errors or clippy findings (DESIGN.md, the contract table).

/// One seeded violation.
struct Row {
    file: &'static str,
    /// Text that occurs exactly once in `file`…
    needle: &'static str,
    /// …and what replaces it.
    replacement: &'static str,
    /// Lints that must fire in `file`, sorted by name — and nothing else
    /// anywhere.
    expect: &'static [&'static str],
}

const ROWS: &[Row] = &[
    Row {
        file: "crates/model/src/ffn.rs",
        needle: "        let (pre, x_tape) = self.lin1.forward(x, &sec, ctx);",
        replacement: "        let (pre, x_tape) = self.lin1.forward(x, &sec, ctx);\n        \
                      let _raw = attn_tensor::gemm::matmul(x, x);",
        expect: &["unguarded-gemm"],
    },
    Row {
        file: "crates/serve/src/gateway.rs",
        needle: "        self.step_hot();\n        self.now += 1;",
        replacement: "        self.step_hot();\n        self.done.last().unwrap();\n        \
                      self.now += 1;",
        expect: &["panic-reach"],
    },
    Row {
        file: "crates/core/src/config.rs",
        needle: "attn_tensor::float::exactly_zero_f64(self.f_as)",
        replacement: "self.f_as == 0.0",
        expect: &["float-eq"],
    },
    // The indexing the allow vouches for is gone, so the allow is debt.
    Row {
        file: "crates/serve/src/gateway.rs",
        needle: "&q.req.prompt[..chunk]",
        replacement: "q.req.prompt.get(..chunk).unwrap_or(&[])",
        expect: &["unused-allow"],
    },
];

#[test]
fn every_lint_fires_on_a_seeded_violation_in_the_real_tree() {
    let root = std::path::Path::new(
        &std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR"),
    )
    .join("../..");
    let tree = attn_lint::read_tree(&root).expect("workspace read");
    let clean = attn_lint::scan_sources(&tree);
    assert!(
        clean.is_clean(),
        "the unmutated tree must scan clean:\n{}",
        attn_lint::report::render_text(&clean)
    );
    for (i, row) in ROWS.iter().enumerate() {
        let mut files = tree.clone();
        let (_, src) = files
            .iter_mut()
            .find(|(rel, _)| rel == row.file)
            .unwrap_or_else(|| panic!("row {i}: no file {}", row.file));
        assert_eq!(
            src.matches(row.needle).count(),
            1,
            "row {i}: needle must occur exactly once in {}",
            row.file
        );
        *src = src.replacen(row.needle, row.replacement, 1);
        let report = attn_lint::scan_sources(&files);
        let mut got: Vec<(&str, &str)> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.lint))
            .collect();
        got.sort_unstable();
        let want: Vec<(&str, &str)> = row.expect.iter().map(|&l| (row.file, l)).collect();
        assert_eq!(
            got,
            want,
            "row {i} ({}):\n{}",
            row.file,
            attn_lint::report::render_text(&report)
        );
    }
    for name in attn_lint::LINT_NAMES.iter().chain(&["unused-allow"]) {
        assert!(
            ROWS.iter().any(|r| r.expect.contains(name)),
            "`{name}` has no row in the mutation table: prove it fires or delete it"
        );
    }
}
