//! Scope and context tracking over the token stream.
//!
//! Turns the flat lexer output into per-token verdicts the lints need:
//!
//! * **test regions** — `#[cfg(test)]` modules and `#[test]` functions
//!   (every lint skips them; tests may panic and compare),
//! * **assert-macro extents** — `assert!`/`debug_assert!`-family argument
//!   lists (diagnostic code; slice indexing there is not a serving-path
//!   panic distinct from the assert itself),
//! * **code lines** — lines carrying at least one non-comment token
//!   (anchors above-the-line allows).

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Macros whose arguments are diagnostic-only for indexing purposes.
const ASSERT_MACROS: [&str; 6] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Per-token context flags plus file-level facts.
pub struct Context {
    /// Token index → inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Token index → inside the argument list of an assert-family macro.
    pub in_assert: Vec<bool>,
    /// Sorted lines that carry at least one non-comment token.
    pub code_lines: Vec<u32>,
}

/// Analyse `toks` into a [`Context`].
pub fn analyze(toks: &[Tok]) -> Context {
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut in_assert = vec![false; n];
    let mut code_line_set = BTreeSet::new();

    // Brace-scope stack: `true` levels are test regions.
    let mut scopes: Vec<bool> = Vec::new();
    // Set by `#[cfg(test)]` / `#[test]` attributes, consumed by the next
    // `{` (the item body) and cleared by `;` (attribute on a non-block
    // item such as `use`).
    let mut pending_test_attr = false;

    let mut paren_depth = 0usize;
    // Paren depths at which an assert-family macro's argument list opened.
    let mut assert_parens: Vec<usize> = Vec::new();

    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.kind != TokKind::LineComment {
            code_line_set.insert(t.line);
        }

        // Attributes: `#[…]` — scan the bracket group for `test`.
        if t.is_punct("#") && matches!(toks.get(i + 1), Some(b) if b.is_punct("[")) {
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            while j < n {
                let a = &toks[j];
                if a.is_punct("[") {
                    depth += 1;
                } else if a.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            pending_test_attr |= has_test;
            // Attribute tokens inherit the current region's flags.
            let flag = scopes.last().copied().unwrap_or(false);
            in_test[i..=j.min(n - 1)].fill(flag);
            i = j + 1;
            continue;
        }

        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    let parent = scopes.last().copied().unwrap_or(false);
                    scopes.push(parent || pending_test_attr);
                    pending_test_attr = false;
                }
                "}" => {
                    scopes.pop();
                }
                "(" => {
                    // Opened by an assert-family macro? (`ident ! (`)
                    if i >= 2
                        && toks[i - 1].is_punct("!")
                        && toks[i - 2].kind == TokKind::Ident
                        && ASSERT_MACROS.contains(&toks[i - 2].text.as_str())
                    {
                        assert_parens.push(paren_depth);
                    }
                    paren_depth += 1;
                }
                ")" => {
                    paren_depth = paren_depth.saturating_sub(1);
                    if assert_parens.last() == Some(&paren_depth) {
                        assert_parens.pop();
                    }
                }
                ";" => pending_test_attr = false,
                _ => {}
            }
        }

        in_test[i] = scopes.last().copied().unwrap_or(false) || pending_test_attr;
        in_assert[i] = !assert_parens.is_empty();
        i += 1;
    }

    Context {
        in_test,
        in_assert,
        code_lines: code_line_set.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(src: &str) -> (Vec<Tok>, Context) {
        let toks = lex(src);
        let c = analyze(&toks);
        (toks, c)
    }

    fn flag_at(toks: &[Tok], flags: &[bool], ident: &str) -> bool {
        let i = toks
            .iter()
            .position(|t| t.is_ident(ident))
            .unwrap_or_else(|| panic!("ident {ident} not found"));
        flags[i]
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn helper() { body(); }\n}\n";
        let (toks, c) = ctx(src);
        assert!(!flag_at(&toks, &c.in_test, "live"));
        assert!(flag_at(&toks, &c.in_test, "body"));
    }

    #[test]
    fn test_fn_attribute_marks_its_body() {
        let src = "#[test]\nfn check() { inner(); }\nfn live() { outer(); }\n";
        let (toks, c) = ctx(src);
        assert!(flag_at(&toks, &c.in_test, "inner"));
        assert!(!flag_at(&toks, &c.in_test, "outer"));
    }

    #[test]
    fn assert_macro_arguments_are_marked() {
        let src = "debug_assert!(w[0] <= w[1]);\nuse_it(w[0]);\n";
        let (toks, c) = ctx(src);
        let first = toks.iter().position(|t| t.is_ident("w")).unwrap();
        assert!(c.in_assert[first]);
        let last = toks.iter().rposition(|t| t.is_ident("w")).unwrap();
        assert!(!c.in_assert[last]);
    }
}
