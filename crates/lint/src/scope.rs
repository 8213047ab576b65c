//! Scope and context tracking over the token stream.
//!
//! Turns the flat lexer output into per-token verdicts the lints need:
//!
//! * **test regions** — `#[cfg(test)]` modules and `#[test]` functions
//!   (every lint skips them; tests may panic and compare),
//! * **parallel-chain extents** — the span of a statement from a rayon
//!   parallel source (`.par_iter()`, `.into_par_iter()`,
//!   `.par_chunks_mut(…)`, …) to its end, including closure bodies passed
//!   into the chain,
//! * **assert-macro extents** — `assert!`/`debug_assert!`-family argument
//!   lists (diagnostic code; slice indexing there is not a serving-path
//!   panic distinct from the assert itself),
//! * **`HashMap`/`HashSet` bindings** — names bound with a hash-map type
//!   via `let`, field or parameter annotations, so iteration over them
//!   can be flagged,
//! * **code lines** — lines carrying at least one non-comment token
//!   (anchors above-the-line allows).

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Rayon adapters that start a parallel chain.
const PAR_SOURCES: [&str; 8] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_chunks_exact",
    "par_chunks_exact_mut",
    "par_bridge",
];

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
    /// Token index → inside a parallel-iterator chain statement.
    pub in_par_chain: Vec<bool>,
    /// Token index → inside the argument list of an assert-family macro.
    pub in_assert: Vec<bool>,
    /// Names bound to `HashMap`/`HashSet` values in this file.
    pub hash_bindings: BTreeSet<String>,
    /// Sorted lines that carry at least one non-comment token.
    pub code_lines: Vec<u32>,
}

/// Analyse `toks` into a [`Context`].
pub fn analyze(toks: &[Tok]) -> Context {
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut in_par_chain = vec![false; n];
    let mut in_assert = vec![false; n];
    let mut hash_bindings = BTreeSet::new();
    let mut code_line_set = BTreeSet::new();

    // Brace-scope stack: `true` levels are test regions.
    let mut scopes: Vec<bool> = Vec::new();
    // Set by `#[cfg(test)]` / `#[test]` attributes, consumed by the next
    // `{` (the item body) and cleared by `;` (attribute on a non-block
    // item such as `use`).
    let mut pending_test_attr = false;

    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    // (brace depth, paren depth) where the active par chain started.
    let mut par_start: Option<(usize, usize)> = None;
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

        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    let parent = scopes.last().copied().unwrap_or(false);
                    scopes.push(parent || pending_test_attr);
                    pending_test_attr = false;
                    brace_depth += 1;
                }
                "}" => {
                    scopes.pop();
                    brace_depth = brace_depth.saturating_sub(1);
                    if let Some((bd, _)) = par_start {
                        if brace_depth < bd {
                            par_start = None;
                        }
                    }
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
                    if let Some((bd, pd)) = par_start {
                        if paren_depth < pd && brace_depth <= bd {
                            par_start = None;
                        }
                    }
                }
                ";" => {
                    pending_test_attr = false;
                    if let Some((bd, pd)) = par_start {
                        if brace_depth == bd && paren_depth <= pd {
                            par_start = None;
                        }
                    }
                }
                _ => {}
            },
            TokKind::Ident => {
                // Parallel source: `.par_iter()` etc.
                if PAR_SOURCES.contains(&t.text.as_str())
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && par_start.is_none()
                {
                    par_start = Some((brace_depth, paren_depth));
                }
                // HashMap/HashSet binding: nearest preceding `:` with an
                // identifier before it (let/field/param annotations), or a
                // `let <name> = …` statement that mentions the type before
                // its `;`.
                if t.text == "HashMap" || t.text == "HashSet" {
                    if let Some(name) = annotated_name(toks, i) {
                        hash_bindings.insert(name);
                    }
                }
                if t.text == "let" {
                    if let Some(name) = let_hash_binding(toks, i) {
                        hash_bindings.insert(name);
                    }
                }
            }
            _ => {}
        }

        in_test[i] = scopes.last().copied().unwrap_or(false) || pending_test_attr;
        in_par_chain[i] = par_start.is_some();
        in_assert[i] = !assert_parens.is_empty();
        i += 1;
    }

    Context {
        in_test,
        in_par_chain,
        in_assert,
        hash_bindings,
        code_lines: code_line_set.into_iter().collect(),
    }
}

/// For a `HashMap`/`HashSet` token at `i`, find the annotated name in
/// patterns like `votes: HashMap<…>` or `let m: &HashMap<…>` — the
/// identifier just before the nearest preceding `:` (within the same
/// statement, a few tokens back).
fn annotated_name(toks: &[Tok], i: usize) -> Option<String> {
    let lo = i.saturating_sub(8);
    let mut j = i;
    while j > lo {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct("::") {
            return None;
        }
        if t.is_punct(":") {
            let prev = toks.get(j.checked_sub(1)?)?;
            if prev.kind == TokKind::Ident && !is_keyword(&prev.text) {
                return Some(prev.text.clone());
            }
            return None;
        }
    }
    None
}

/// For a `let` token at `i`, bind `name` when the statement mentions
/// `HashMap`/`HashSet` before its terminating `;` (covers
/// `let m = HashMap::new();`).
fn let_hash_binding(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i + 1;
    if matches!(toks.get(j), Some(t) if t.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j)?;
    if name.kind != TokKind::Ident || is_keyword(&name.text) {
        return None;
    }
    let mut k = j + 1;
    while let Some(t) = toks.get(k) {
        if t.is_punct(";") || t.is_punct("{") {
            break;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            return Some(name.text.clone());
        }
        k += 1;
    }
    None
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "mut" | "ref" | "pub" | "fn" | "if" | "else" | "match" | "for" | "while" | "in"
    )
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
    fn par_chain_extends_into_closures_and_ends_at_semicolon() {
        let src = "xs.par_iter().for_each(|x| { acc(x); });\nafter();\n";
        let (toks, c) = ctx(src);
        assert!(flag_at(&toks, &c.in_par_chain, "acc"));
        assert!(!flag_at(&toks, &c.in_par_chain, "after"));
    }

    #[test]
    fn par_chain_as_argument_ends_at_closing_paren() {
        let src = "take(v.into_par_iter().map(f).collect());\nnext();\n";
        let (toks, c) = ctx(src);
        assert!(flag_at(&toks, &c.in_par_chain, "collect"));
        assert!(!flag_at(&toks, &c.in_par_chain, "next"));
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

    #[test]
    fn hash_bindings_from_let_field_and_param() {
        let src = "struct S { map: HashMap<String, f32> }\n\
                   fn f(seen: &HashSet<u64>) { let mut votes = HashMap::new(); }\n\
                   fn g() { let plain = Vec::new(); }\n";
        let (_, c) = ctx(src);
        assert!(c.hash_bindings.contains("map"));
        assert!(c.hash_bindings.contains("seen"));
        assert!(c.hash_bindings.contains("votes"));
        assert!(!c.hash_bindings.contains("plain"));
    }

    #[test]
    fn use_statements_do_not_bind() {
        let (_, c) = ctx("use std::collections::HashMap;\n");
        assert!(c.hash_bindings.is_empty());
    }
}
