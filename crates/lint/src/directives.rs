//! Suppression and justification directives, parsed from the comment
//! stream.
//!
//! * An **allow** — a *plain* `//` comment of the form
//!   `attn-lint: allow(<lint-name>) — <justification>`, either trailing
//!   the offending line or on its own line directly above it. The
//!   justification is mandatory: an allow without one does not suppress
//!   anything and is itself reported. So are allows naming an unknown
//!   lint and allows that suppress nothing (`unused-allow`) — suppression
//!   debt can never accumulate silently.
//! * An **allow-path** — same grammar with `allow-path(<lint-name>)`,
//!   valid only for the reachability lints. Instead of killing a finding
//!   on its own line, it cuts the *call-graph edges* leaving the call on
//!   the targeted line, vouching for a reviewed boundary once rather
//!   than per-sink. Unused and unjustified allow-paths are findings like
//!   any other allow.
//!
//! Directives are only read from plain `//` comments (never `///`/`//!`),
//! so documentation can quote the grammar without registering any.

use crate::lexer::{Tok, TokKind};
use crate::{Finding, LINT_NAMES, REACH_NAMES};

/// One parsed `allow` directive.
#[derive(Debug)]
pub struct Allow {
    /// Line the comment sits on.
    pub line: u32,
    /// Column of the comment.
    pub col: u32,
    /// Lint names inside `allow(…)` (comma-separated).
    pub names: Vec<String>,
    /// Whether a non-empty justification followed the name list.
    pub justified: bool,
    /// The source line this allow suppresses findings on: the comment's
    /// own line for a trailing allow, else the next line holding code.
    pub target_line: u32,
    /// Set when the allow suppressed at least one finding.
    pub used: std::cell::Cell<bool>,
}

/// All directives of one file.
#[derive(Debug, Default)]
pub struct Directives {
    /// Parsed allows, in source order.
    pub allows: Vec<Allow>,
    /// Parsed allow-paths (call-graph edge cuts), in source order.
    pub allow_paths: Vec<Allow>,
    /// Malformed/unknown directives, reported as findings directly.
    pub errors: Vec<Finding>,
}

/// The marker every directive starts with (after the comment prefix).
const MARKER: &str = "attn-lint:";

/// Attach a standalone directive to the next code line (its own line when
/// code shares it — the trailing form).
fn attach_line(code_lines: &[u32], line: u32) -> u32 {
    if code_lines.binary_search(&line).is_ok() {
        line
    } else {
        code_lines
            .iter()
            .copied()
            .find(|&l| l > line)
            .unwrap_or(line)
    }
}

/// Extract directives from a token stream. `code_lines` must hold every
/// line that carries at least one non-comment token (used to attach an
/// above-the-line allow to the statement it covers).
pub fn parse(rel_path: &str, toks: &[Tok], code_lines: &[u32]) -> Directives {
    let mut out = Directives::default();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // `///` and `//!` never carry directives (lets docs quote them).
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let body = t.text.strip_prefix("//").unwrap_or(&t.text).trim();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok((is_path, names, justified)) => {
                let form = if is_path { "allow-path" } else { "allow" };
                let mut valid = Vec::new();
                for name in names {
                    if is_path && !REACH_NAMES.contains(&name.as_str()) {
                        out.errors.push(Finding::new(
                            rel_path,
                            t.line,
                            t.col,
                            "unknown-allow",
                            format!(
                                "allow-path only applies to reachability lints, \
                                     not `{name}`"
                            ),
                        ));
                    } else if LINT_NAMES.contains(&name.as_str()) {
                        valid.push(name);
                    } else {
                        out.errors.push(Finding::new(
                            rel_path,
                            t.line,
                            t.col,
                            "unknown-allow",
                            format!("{form} names unknown lint `{name}`"),
                        ));
                    }
                }
                if !justified {
                    out.errors.push(Finding::new(
                        rel_path,
                        t.line,
                        t.col,
                        "missing-justification",
                        format!("{form} requires `— <justification>` after the lint name"),
                    ));
                } else if !valid.is_empty() {
                    let target_line = attach_line(code_lines, t.line);
                    let allow = Allow {
                        line: t.line,
                        col: t.col,
                        names: valid,
                        justified,
                        target_line,
                        used: std::cell::Cell::new(false),
                    };
                    if is_path {
                        out.allow_paths.push(allow);
                    } else {
                        out.allows.push(allow);
                    }
                }
            }
            Err(msg) => {
                out.errors
                    .push(Finding::new(rel_path, t.line, t.col, "unknown-allow", msg))
            }
        }
    }
    out
}

/// Parse `allow(<names>) — justification` or its `allow-path(…)` edge-cut
/// form (the part after `attn-lint:`). Returns `(is_path, names,
/// justified)`. The em-dash separator also accepts `--` and a spaced `-`
/// so keyboards without an em-dash are not excluded.
fn parse_allow(rest: &str) -> Result<(bool, Vec<String>, bool), String> {
    let (is_path, args) = if let Some(a) = rest.strip_prefix("allow-path(") {
        (true, a)
    } else if let Some(a) = rest.strip_prefix("allow(") {
        (false, a)
    } else {
        return Err(format!("unrecognised directive `{MARKER} {rest}`"));
    };
    let Some(close) = args.find(')') else {
        return Err("allow is missing its closing `)`".to_string());
    };
    let names: Vec<String> = args[..close]
        .split(',')
        .map(|n| n.trim().to_string())
        .filter(|n| !n.is_empty())
        .collect();
    if names.is_empty() {
        return Err("allow() names no lint".to_string());
    }
    let tail = args[close + 1..].trim_start();
    let justified = ["—", "--", "- ", "–"]
        .iter()
        .any(|sep| tail.strip_prefix(sep).is_some_and(|j| !j.trim().is_empty()));
    Ok((is_path, names, justified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn directives(src: &str) -> Directives {
        let toks = lex(src);
        let mut code_lines: Vec<u32> = toks
            .iter()
            .filter(|t| t.kind != TokKind::LineComment)
            .map(|t| t.line)
            .collect();
        code_lines.dedup();
        parse("f.rs", &toks, &code_lines)
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let d = directives("let x = 1; // attn-lint: allow(float-eq) — sentinel\n");
        assert_eq!(d.allows.len(), 1);
        assert_eq!(d.allows[0].target_line, 1);
        assert!(d.errors.is_empty());
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let d = directives(
            "// attn-lint: allow(float-eq) — exact sentinel\n// another comment\nlet v = 1;\n",
        );
        assert_eq!(d.allows.len(), 1);
        assert_eq!(d.allows[0].target_line, 3);
    }

    #[test]
    fn justification_is_mandatory() {
        let d = directives("// attn-lint: allow(float-eq)\nlet x = 1;\n");
        assert!(d.allows.is_empty());
        assert_eq!(d.errors.len(), 1);
        assert_eq!(d.errors[0].lint, "missing-justification");
    }

    #[test]
    fn unknown_lint_is_an_error() {
        let d = directives("// attn-lint: allow(no-such-lint) — why\nlet x = 1;\n");
        assert!(d.allows.is_empty());
        assert_eq!(d.errors[0].lint, "unknown-allow");
    }

    #[test]
    fn doc_comments_never_register_allows() {
        let d = directives("/// attn-lint: allow(float-eq) — quoted in docs\nlet x = 1;\n");
        assert!(d.allows.is_empty());
        assert!(d.errors.is_empty());
    }

    #[test]
    fn allow_path_parses_into_its_own_bucket() {
        let d = directives(
            "self.model.decode_step(t); // attn-lint: allow-path(panic-reach) — contract\n",
        );
        assert!(d.allows.is_empty());
        assert_eq!(d.allow_paths.len(), 1);
        assert_eq!(d.allow_paths[0].target_line, 1);
        assert!(d.errors.is_empty());
    }

    #[test]
    fn allow_path_rejects_syntactic_lints() {
        let d = directives("let x = 1; // attn-lint: allow-path(float-eq) — nope\n");
        assert!(d.allow_paths.is_empty());
        assert_eq!(d.errors.len(), 1);
        assert_eq!(d.errors[0].lint, "unknown-allow");
    }

    #[test]
    fn allow_path_justification_is_mandatory_too() {
        let d = directives("// attn-lint: allow-path(panic-reach)\nf();\n");
        assert!(d.allow_paths.is_empty());
        assert_eq!(d.errors[0].lint, "missing-justification");
    }
}
