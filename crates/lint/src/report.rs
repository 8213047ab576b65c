//! Text and JSON rendering of a [`crate::Report`].
//!
//! The JSON writer is hand-rolled (vendored-only environment); the schema
//! is flat and append-friendly so `BENCH_lint.json` can be tracked like
//! the other bench artifacts.
//!
//! Schema history:
//!
//! * `attn-lint-report/v1` — files/findings/suppressions/counts.
//! * `attn-lint-report/v2` — adds per-pass wall time (`lint_us`), the
//!   call-graph resolution stats (`calls`), and the serving entry-point
//!   list the reachability lints anchored on (`entry_points`).
//! * `attn-lint-report/v3` — adds the shared-prepare timing
//!   (`prepare_us`, `coverage_reuse_saved_us`), the `unsafe` inventory
//!   (`unsafe`: sites/documented/safety_coverage), per-lint suppression
//!   counts (`suppression_counts`), and the full `suppressions` array
//!   (sorted, so the committed artifact is byte-stable).
//! * `attn-lint-report/v4` — six lints; drops every timing field
//!   (`wall_ms`, `prepare_us`, `coverage_reuse_saved_us`, `lint_us`), so
//!   two runs over one tree write byte-identical files and CI can
//!   `git diff --exit-code` the committed artifact. Wall time stays in
//!   the text summary.
//! * `attn-lint-report/v5` — five lints: the SIMD-dispatch lint goes,
//!   its contract now held by the compiler (a private detection token in
//!   `attn_tensor::lanes`), so its `counts` and `suppression_counts`
//!   entries go with it.
//! * `attn-lint-report/v6` — three lints: `nondet-reduce` and
//!   `unsafe-audit` go, their contracts held by rustc and clippy (the
//!   rayon shim's reducer-free API, `clippy.toml`'s disallowed types,
//!   `attn_tensor`'s `unsafe` lint levels), so their counts, the
//!   `unused-safety` meta count and the `unsafe` inventory object go.
//! * `attn-lint-report/v7` — two lints: the GEMM-coverage lint goes, its
//!   contract now held by clippy (`clippy.toml`'s disallowed methods), so
//!   its `counts` and `suppression_counts` entries go with it. The
//!   separate op-coverage artifact and its schema are retired too.

use crate::Report;
use std::fmt::Write as _;

/// Human-readable rendering: one `file:line:col · lint · message` per
/// finding plus a summary line.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{f}");
    }
    let _ = writeln!(
        out,
        "attn_lint: {} files scanned, {} finding{}, {} suppression{} honoured, \
         {}/{} calls resolved ({:.1}%), {} ms",
        report.files_scanned,
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.suppressions_used,
        if report.suppressions_used == 1 {
            ""
        } else {
            "s"
        },
        report.calls_resolved,
        report.calls_total,
        report.resolution_rate() * 100.0,
        report.wall_ms
    );
    out
}

/// Machine-readable rendering (schema `attn-lint-report/v7`).
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"attn-lint-report/v7\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"total_findings\": {},", report.findings.len());
    let _ = writeln!(
        out,
        "  \"suppressions_used\": {},",
        report.suppressions_used
    );
    let _ = writeln!(
        out,
        "  \"calls\": {{\"total\": {}, \"resolved\": {}, \"unresolved\": {}, \
         \"resolution_rate\": {:.4}}},",
        report.calls_total,
        report.calls_resolved,
        report.calls_unresolved,
        report.resolution_rate()
    );
    out.push_str("  \"entry_points\": [");
    for (i, e) in report.entry_points.iter().enumerate() {
        let sep = if i + 1 == report.entry_points.len() {
            ""
        } else {
            ", "
        };
        let _ = write!(out, "{}{sep}", json_str(e));
    }
    out.push_str("],\n");
    out.push_str("  \"counts\": {");
    let counts = report.counts();
    for (i, (name, n)) in counts.iter().enumerate() {
        let sep = if i + 1 == counts.len() { "" } else { ", " };
        let _ = write!(out, "\"{name}\": {n}{sep}");
    }
    out.push_str("},\n");
    out.push_str("  \"suppression_counts\": {");
    let scounts = report.suppression_counts();
    for (i, (name, n)) in scounts.iter().enumerate() {
        let sep = if i + 1 == scounts.len() { "" } else { ", " };
        let _ = write!(out, "\"{name}\": {n}{sep}");
    }
    out.push_str("},\n");
    out.push_str("  \"suppressions\": [");
    for (i, s) in report.suppressions.iter().enumerate() {
        let sep = if i + 1 == report.suppressions.len() {
            "\n  "
        } else {
            ","
        };
        let _ = write!(
            out,
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"lint\": {}}}{sep}",
            json_str(&s.file),
            s.line,
            s.col,
            json_str(&s.lint)
        );
    }
    out.push_str("],\n");
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            "\n  "
        } else {
            ","
        };
        let _ = write!(
            out,
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"lint\": {}, \"message\": {}}}{sep}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.lint),
            json_str(&f.message)
        );
    }
    out.push_str("]\n}\n");
    out
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn json_is_well_formed_and_escaped() {
        let report = Report {
            files_scanned: 1,
            findings: vec![Finding {
                file: "crates/x/src/a.rs".into(),
                line: 3,
                col: 7,
                lint: "float-eq",
                message: "raw `==` with \"quotes\"\nand newline".into(),
            }],
            suppressions_used: 2,
            suppressions: vec![crate::Suppression {
                file: "crates/x/src/a.rs".into(),
                line: 9,
                col: 12,
                lint: "panic-reach".into(),
            }],
            wall_ms: 5,
            calls_total: 10,
            calls_resolved: 9,
            calls_unresolved: 1,
            entry_points: vec!["Gateway::tick".into()],
        };
        let json = render_json(&report);
        assert!(json.contains("\"schema\": \"attn-lint-report/v7\""));
        assert!(json.contains("\"total_findings\": 1"));
        assert!(json.contains("\\\"quotes\\\"\\nand newline"));
        assert!(json.contains("\"float-eq\": 1"));
        assert!(json.contains("\"resolution_rate\": 0.9000"));
        assert!(
            !json.contains("wall_ms"),
            "timings stay out of the artifact"
        );
        assert!(
            !json.contains("\"unsafe\""),
            "v7 carries no unsafe inventory"
        );
        assert!(json.contains("\"panic-reach\": 1")); // suppression_counts
        assert!(json.contains("\"Gateway::tick\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn text_summary_counts() {
        let report = Report {
            files_scanned: 4,
            suppressions_used: 1,
            wall_ms: 2,
            ..Default::default()
        };
        let text = render_text(&report);
        assert!(text.contains("4 files scanned, 0 findings, 1 suppression honoured"));
    }
}
