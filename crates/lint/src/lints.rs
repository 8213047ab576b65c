//! The four per-file contract lints.
//!
//! Each pass walks the token stream with the [`crate::scope::Context`]
//! verdicts and produces raw findings; suppression filtering happens in
//! [`crate::scan_sources`]. All passes skip test regions — tests may
//! panic, compare floats exactly and probe with `unsafe`.
//!
//! `unsafe-audit` is the directive-checked one: every `unsafe` block /
//! fn / impl / trait in a Full-profile file must carry a `// SAFETY:`
//! directive whose target line is the `unsafe` token's line (place it
//! directly above the `unsafe` line, *after* any attributes, or trailing
//! on the same line), and `from_raw_parts*` calls must tie their length
//! expression to an asserted bound in the same fn body.

use crate::directives::Directives;
use crate::lexer::{match_delim, next_code, next_code_idx, prev_code, Tok, TokKind};
use crate::parse::{is_decl_keyword, ParsedFile};
use crate::scope::Context;
use crate::Finding;

/// Fixed-order-reduction contract: order-sensitive float reductions may
/// not hide inside rayon parallel chains, and hash-map iteration may not
/// feed float math.
pub const NONDET_REDUCE: &str = "nondet-reduce";
/// ABFT coverage: model code must reach GEMMs through `GuardedSection` /
/// `ProtectedLinear`, never the raw kernel entry points.
pub const UNGUARDED_GEMM: &str = "unguarded-gemm";
/// Raw `==`/`!=` against float literals must become named helpers.
pub const FLOAT_EQ: &str = "float-eq";
/// Undocumented or unbounded `unsafe` surface.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";

/// Which lint set a file gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Library code: every lint, and the file joins the call graph.
    Full,
    /// Integration tests and examples: they may panic freely, but
    /// determinism and float hygiene still apply —
    /// `nondet-reduce` and `float-eq` only, and the file stays out of
    /// the call graph.
    Relaxed,
}

/// Raw GEMM entry points (the `attn_tensor::gemm` free-function family):
/// the `*_into` kernels and the allocating `matmul` / `matmul_nt` /
/// `matmul_tn` trio over them. The one matcher `unguarded-gemm` and the
/// coverage walk share.
pub(crate) fn is_raw_gemm_entry(name: &str) -> bool {
    matches!(name, "matmul" | "matmul_nt" | "matmul_tn")
        || (name.starts_with("matmul_") && name.ends_with("_into"))
        || (name.starts_with("gemm_encode_") && name.ends_with("_into"))
}

/// Barrier modules implementing the guarded pipeline: raw GEMM calls
/// inside them *are* the guard.
pub(crate) const BARRIER_FILES: [&str; 4] = [
    "crates/core/src/section.rs",
    "crates/core/src/checksum.rs",
    "crates/core/src/decode.rs",
    "crates/core/src/checked.rs",
];

/// The by-design exemption from the GEMM guard, as `(owner, fn)`: raw
/// GEMMs inside these fns run unguarded on purpose — `Linear::forward` is
/// the pooler / classifier / LM head (guarding it is ROADMAP item 5), the
/// two `backward`s consume tapes the forward pass already healed. One
/// list, honoured by `unguarded-gemm` and marked `by_design` in the
/// coverage report; it may only shrink.
pub const UNGUARDED_GEMM_BY_DESIGN: [(&str, &str); 3] = [
    ("Linear", "forward"),
    ("Linear", "backward"),
    ("AttentionLayer", "backward"),
];

/// Is `owner::name` on the by-design exemption list?
pub(crate) fn unguarded_by_design(owner: Option<&str>, name: &str) -> bool {
    owner.is_some_and(|o| UNGUARDED_GEMM_BY_DESIGN.contains(&(o, name)))
}

/// Paths where raw GEMM calls are legitimate: the kernel crate itself,
/// the barrier modules that *implement* the guarded pipeline, and benches.
pub(crate) fn unguarded_gemm_whitelisted(rel_path: &str) -> bool {
    rel_path.starts_with("crates/tensor/")
        || rel_path.starts_with("crates/bench/")
        || rel_path.starts_with("crates/lint/")
        || BARRIER_FILES.contains(&rel_path)
}

/// Order-sensitive reduction adapters (float reductions through these are
/// nondeterministic under work stealing).
const ORDERED_REDUCERS: [&str; 4] = ["sum", "product", "reduce", "fold"];

/// Hash-container methods that iterate in arbitrary order.
const HASH_ITERATORS: [&str; 8] = [
    "iter",
    "iter_mut",
    "values",
    "values_mut",
    "keys",
    "drain",
    "into_iter",
    "retain",
];

pub(crate) fn nondet_reduce(rel_path: &str, toks: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        // A) Order-sensitive reducers inside a parallel chain.
        if ctx.in_par_chain[i]
            && t.kind == TokKind::Ident
            && ORDERED_REDUCERS.contains(&t.text.as_str())
            && matches!(prev_code(toks, i), Some(p) if p.is_punct("."))
            && matches!(next_code(toks, i), Some(nx) if nx.is_punct("(") || nx.is_punct("::"))
        {
            out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                NONDET_REDUCE,
                format!(
                    "`.{}(…)` inside a rayon parallel chain reduces in scheduling order; \
                     collect in input order and reduce sequentially (fixed-order contract)",
                    t.text
                ),
            ));
        }
        // B) Accumulation inside a parallel closure. Integer counters
        //    (`+= 1`) are exact and associative; everything else must
        //    prove it is a fixed-order / disjoint-output merge site.
        if ctx.in_par_chain[i]
            && t.kind == TokKind::Punct
            && matches!(t.text.as_str(), "+=" | "-=" | "*=" | "/=")
        {
            let rhs_is_int_literal = matches!(next_code(toks, i), Some(nx) if nx.kind == TokKind::Int)
                && matches!(
                    toks[i + 1..]
                        .iter()
                        .filter(|x| x.kind != TokKind::LineComment)
                        .nth(1),
                    Some(after) if after.is_punct(";")
                );
            if !rhs_is_int_literal {
                out.push(Finding::new(
                    rel_path,
                    t.line,
                    t.col,
                    NONDET_REDUCE,
                    format!(
                        "`{}` accumulation inside a rayon parallel closure; if this is a \
                         fixed-order merge over a disjoint chunk, say so in an allow",
                        t.text
                    ),
                ));
            }
        }
        // C) Hash-container iteration feeding float math.
        if t.kind == TokKind::Ident && ctx.hash_bindings.contains(&t.text) {
            let method_iteration = matches!(next_code(toks, i), Some(nx) if nx.is_punct("."))
                && matches!(
                    toks[i + 1..]
                        .iter()
                        .filter(|x| x.kind != TokKind::LineComment)
                        .nth(1),
                    Some(m) if m.kind == TokKind::Ident && HASH_ITERATORS.contains(&m.text.as_str())
                );
            let in_for_header = for_loop_header(toks, i);
            if (method_iteration || in_for_header) && float_evidence_near(toks, i) {
                out.push(Finding::new(
                    rel_path,
                    t.line,
                    t.col,
                    NONDET_REDUCE,
                    format!(
                        "iterating hash container `{}` in arbitrary order feeds float math; \
                         use a BTree container or a fixed key order",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Is token `i` inside a `for … in <here> {` header?
fn for_loop_header(toks: &[Tok], i: usize) -> bool {
    // Walk back to the nearest `for` without crossing `{`, `}`, or `;`.
    let lo = i.saturating_sub(16);
    let mut saw_in = false;
    let mut j = i;
    while j > lo {
        j -= 1;
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("}") || t.is_punct(";") {
            return false;
        }
        if t.is_ident("in") {
            saw_in = true;
        }
        if t.is_ident("for") {
            return saw_in;
        }
    }
    false
}

/// Float evidence near an iteration site: a float literal or `f32`/`f64`
/// token between the enclosing statement's start and its end — for a
/// `for` loop, through the end of the loop body.
fn float_evidence_near(toks: &[Tok], i: usize) -> bool {
    // Backward to statement start.
    let mut start = 0usize;
    for j in (0..i).rev() {
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            start = j + 1;
            break;
        }
    }
    // Forward: to `;` at depth 0, or through the brace group that opens
    // (loop body / trailing closure).
    let mut depth = 0i32;
    let mut end = toks.len();
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth <= 0 {
                end = j + 1;
                break;
            }
        } else if t.is_punct(";") && depth == 0 {
            end = j + 1;
            break;
        }
    }
    toks[start..end]
        .iter()
        .any(|t| t.kind == TokKind::Float || t.is_ident("f32") || t.is_ident("f64"))
}

pub(crate) fn unguarded_gemm(
    rel_path: &str,
    toks: &[Tok],
    ctx: &Context,
    parsed: &ParsedFile,
    out: &mut Vec<Finding>,
) {
    // Token ranges of the fn bodies on the by-design exemption list.
    let exempt: Vec<(usize, usize)> = parsed
        .fns
        .iter()
        .filter(|f| unguarded_by_design(f.owner.as_deref(), &f.name))
        .filter_map(|f| f.body)
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident || !is_raw_gemm_entry(&t.text) {
            continue;
        }
        if exempt.iter().any(|&(a, b)| (a..=b).contains(&i)) {
            continue;
        }
        // Calls only (`name(`), and never method calls — `.gemm_encode_*`
        // on a `GuardedSection` IS the guarded API.
        if !matches!(next_code(toks, i), Some(nx) if nx.is_punct("(")) {
            continue;
        }
        if matches!(prev_code(toks, i), Some(p) if p.is_punct(".")) {
            continue;
        }
        out.push(Finding::new(
            rel_path,
            t.line,
            t.col,
            UNGUARDED_GEMM,
            format!(
                "direct call to raw GEMM entry `{}` outside the protection layer; \
                 route through GuardedSection/ProtectedLinear so ABFT coverage is total",
                t.text
            ),
        ));
    }
}

pub(crate) fn float_eq(rel_path: &str, toks: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let lhs_float = matches!(prev_code(toks, i), Some(p) if p.kind == TokKind::Float);
        let rhs_float = {
            let mut it = toks[i + 1..]
                .iter()
                .filter(|x| x.kind != TokKind::LineComment);
            match it.next() {
                Some(nx) if nx.kind == TokKind::Float => true,
                Some(nx) if nx.is_punct("-") => {
                    matches!(it.next(), Some(n2) if n2.kind == TokKind::Float)
                }
                _ => false,
            }
        };
        if lhs_float || rhs_float {
            out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                FLOAT_EQ,
                format!(
                    "raw `{}` against a float literal; name the contract \
                     (e.g. attn_tensor::float::exactly_zero, FrequencyGate::is_off) \
                     or compare bits via to_bits()",
                    t.text
                ),
            ));
        }
    }
}

/// Tallied `unsafe` surface of one file.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnsafeTally {
    /// Non-test `unsafe` sites in Full-profile code.
    pub sites: usize,
    /// Of those, sites carrying a `// SAFETY:` directive.
    pub documented: usize,
}

/// Run the unsafe-audit pass: SAFETY adjacency for every unsafe site,
/// plus the `from_raw_parts*` asserted-length rule.
pub(crate) fn unsafe_audit(
    rel_path: &str,
    toks: &[Tok],
    ctx: &Context,
    dir: &Directives,
    parsed: &ParsedFile,
    out: &mut Vec<Finding>,
) -> UnsafeTally {
    let mut tally = UnsafeTally::default();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let Some(kind) = classify_unsafe(toks, i) else {
            continue; // `unsafe fn(…)` pointer type, not a site
        };
        let safety = dir.safeties.iter().find(|s| s.target_line == t.line);
        if ctx.in_test.get(i).copied().unwrap_or(false) {
            // Test-region unsafe is exempt, but its SAFETY comment (if
            // any) still counts as used so it is not flagged dangling.
            if let Some(s) = safety {
                s.used.set(true);
            }
            continue;
        }
        tally.sites += 1;
        match safety {
            Some(s) => {
                s.used.set(true);
                tally.documented += 1;
            }
            None => out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                UNSAFE_AUDIT,
                format!("`unsafe {kind}` without an adjacent `// SAFETY:` justification"),
            )),
        }
    }
    // `from_raw_parts*`: the length expression must mention an ident
    // that also appears inside an assert extent of the same fn body.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !t.text.starts_with("from_raw_parts") {
            continue;
        }
        if ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(open) = next_code_idx(toks, i + 1) else {
            continue;
        };
        if !toks[open].is_punct("(") {
            continue;
        }
        let Some(close) = match_delim(toks, open, "(", ")") else {
            continue;
        };
        let len_idents = second_arg_idents(toks, open, close);
        let body = parsed
            .fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(s, e)| s <= i && i < e)
            .max_by_key(|&(s, _)| s);
        let bound = body.is_some_and(|(s, e)| {
            (s..e).any(|k| {
                ctx.in_assert.get(k).copied().unwrap_or(false)
                    && toks[k].kind == TokKind::Ident
                    && len_idents.contains(&toks[k].text)
            })
        });
        if !bound {
            out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                UNSAFE_AUDIT,
                format!(
                    "length of `{}` is not tied to an asserted bound in this fn body",
                    t.text
                ),
            ));
        }
    }
    tally
}

/// Classify the `unsafe` token at `i`: `Some("block" | "fn" | "impl" |
/// "trait")`, or `None` for `unsafe fn(…)` pointer types.
fn classify_unsafe(toks: &[Tok], i: usize) -> Option<&'static str> {
    let j = next_code_idx(toks, i + 1)?;
    match toks[j].text.as_str() {
        "{" if toks[j].kind == TokKind::Punct => Some("block"),
        "impl" => Some("impl"),
        "trait" => Some("trait"),
        "fn" => fn_item_kind(toks, j),
        "extern" => {
            // `unsafe extern "C" fn name` — skip the ABI string.
            let mut k = next_code_idx(toks, j + 1)?;
            if toks[k].kind == TokKind::Str {
                k = next_code_idx(toks, k + 1)?;
            }
            if toks[k].is_ident("fn") {
                fn_item_kind(toks, k)
            } else {
                // `unsafe extern "C" { … }` block (Rust 2024 grammar).
                Some("block")
            }
        }
        _ => None,
    }
}

/// `fn` at `j` names an item (ident follows) rather than a pointer type.
fn fn_item_kind(toks: &[Tok], j: usize) -> Option<&'static str> {
    let k = next_code_idx(toks, j + 1)?;
    (toks[k].kind == TokKind::Ident).then_some("fn")
}

/// Identifiers of the second top-level argument of the call `(open..close)`.
fn second_arg_idents(toks: &[Tok], open: usize, close: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut arg = 0usize;
    for t in &toks[open + 1..close] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => arg += 1,
                _ => {}
            }
        } else if arg == 1 && t.kind == TokKind::Ident && !is_decl_keyword(&t.text) {
            idents.push(t.text.clone());
        }
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::{directives, parse, scope};

    fn audit(src: &str) -> (Vec<Finding>, UnsafeTally) {
        let toks = lex(src);
        let ctx = scope::analyze(&toks);
        let parsed = parse::parse_file(&toks, &ctx);
        let dir = directives::parse("crates/model/src/x.rs", &toks, &ctx.code_lines);
        let mut out = Vec::new();
        let tally = unsafe_audit(
            "crates/model/src/x.rs",
            &toks,
            &ctx,
            &dir,
            &parsed,
            &mut out,
        );
        (out, tally)
    }

    #[test]
    fn undocumented_unsafe_sites_are_flagged_and_tallied() {
        let (f, tally) = audit(
            "unsafe impl Send for P {}\n\
             // SAFETY: raw pointer is unique per rayon task\n\
             unsafe impl Sync for P {}\n\
             fn go() { let x = unsafe { read() }; }\n",
        );
        assert_eq!(tally.sites, 3);
        assert_eq!(tally.documented, 1);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.lint == UNSAFE_AUDIT));
    }

    #[test]
    fn fn_pointer_types_are_not_unsafe_sites() {
        let (f, tally) = audit("struct H { hook: unsafe fn(usize) -> f32 }\n");
        assert!(f.is_empty());
        assert_eq!(tally.sites, 0);
    }

    #[test]
    fn from_raw_parts_needs_an_asserted_bound() {
        let (f, _) = audit(
            "fn stage(p: *mut f32, k: usize) {\n\
             // SAFETY: staging rows are disjoint\n\
             let s = unsafe { std::slice::from_raw_parts_mut(p, 2 * k) };\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("asserted bound"));
    }

    #[test]
    fn asserted_bound_satisfies_from_raw_parts() {
        let (f, tally) = audit(
            "fn stage(p: *mut f32, k: usize, cap: usize) {\n\
             assert!(2 * k <= cap);\n\
             // SAFETY: bound asserted above\n\
             let s = unsafe { std::slice::from_raw_parts_mut(p, 2 * k) };\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(tally.sites, 1);
        assert_eq!(tally.documented, 1);
    }

    #[test]
    fn test_region_unsafe_is_exempt_but_marks_safety_used() {
        let src = "#[cfg(test)]\nmod tests {\n\
             // SAFETY: test-only probe\n\
             fn f() { let x = unsafe { read() }; }\n\
             }\n";
        let toks = lex(src);
        let ctx = scope::analyze(&toks);
        let parsed = parse::parse_file(&toks, &ctx);
        let dir = directives::parse("crates/model/src/x.rs", &toks, &ctx.code_lines);
        let mut out = Vec::new();
        let tally = unsafe_audit(
            "crates/model/src/x.rs",
            &toks,
            &ctx,
            &dir,
            &parsed,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(tally.sites, 0);
        assert!(dir.safeties[0].used.get());
    }
}
