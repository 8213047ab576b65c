//! The four syntactic contract lints.
//!
//! Each pass walks the token stream with the [`crate::scope::Context`]
//! verdicts and produces raw findings; suppression filtering happens in
//! [`crate::scan_sources`]. All passes skip test regions — tests may
//! allocate, panic, and compare floats exactly. The old syntactic
//! `panic-in-serve` lint is gone: its scope is subsumed by the
//! interprocedural `panic-reach` analysis in [`crate::reach`], which
//! follows the call graph out of the serving entry points instead of
//! guessing by crate path.

use crate::lexer::{Tok, TokKind};
use crate::parse::ParsedFile;
use crate::scope::Context;
use crate::Finding;

/// Fixed-order-reduction contract: order-sensitive float reductions may
/// not hide inside rayon parallel chains, and hash-map iteration may not
/// feed float math.
pub const NONDET_REDUCE: &str = "nondet-reduce";
/// Alloc-free steady state: no heap allocation in modules that declare
/// `//! attn-lint: hot-path`.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// ABFT coverage: model code must reach GEMMs through `GuardedSection` /
/// `ProtectedLinear`, never the raw kernel entry points.
pub const UNGUARDED_GEMM: &str = "unguarded-gemm";
/// Raw `==`/`!=` against float literals must become named helpers.
pub const FLOAT_EQ: &str = "float-eq";

/// Which lint set a file gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Library code: every lint, and the file joins the call graph.
    Full,
    /// Integration tests and examples: they may allocate and panic
    /// freely, but determinism and float hygiene still apply —
    /// `nondet-reduce` and `float-eq` only, and the file stays out of
    /// the call graph.
    Relaxed,
}

/// Raw GEMM entry points (the `attn_tensor::gemm` free-function family):
/// the `*_into` kernels and the allocating `matmul` / `matmul_nt` /
/// `matmul_tn` trio over them. The one matcher `unguarded-gemm`,
/// `unguarded-gemm-reach` and the coverage walk share.
pub(crate) fn is_raw_gemm_entry(name: &str) -> bool {
    matches!(name, "matmul" | "matmul_nt" | "matmul_tn")
        || (name.starts_with("matmul_") && name.ends_with("_into"))
        || (name.starts_with("gemm_encode_") && name.ends_with("_into"))
}

/// Barrier modules implementing the guarded pipeline: raw GEMM calls
/// inside them *are* the guard, and reachability never descends into them.
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
/// list, honoured by `unguarded-gemm`, `unguarded-gemm-reach` and the
/// coverage floor; it may only shrink.
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

fn prev_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[..i]
        .iter()
        .rev()
        .find(|t| t.kind != TokKind::LineComment)
}

fn next_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[i + 1..]
        .iter()
        .find(|t| t.kind != TokKind::LineComment)
}

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

/// Allocation surface banned in hot-path modules (outside tests).
pub(crate) fn hot_path_alloc(rel_path: &str, toks: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let flag: Option<&str> = match t.text.as_str() {
            // `vec![…]`
            "vec" if matches!(next_code(toks, i), Some(nx) if nx.is_punct("!")) => {
                Some("`vec!` allocates")
            }
            // `Vec::new()` / `Vec::with_capacity(…)` / `Box::new(…)`
            "new" | "with_capacity" => {
                let path_head = toks[..i]
                    .iter()
                    .rev()
                    .filter(|x| x.kind != TokKind::LineComment)
                    .nth(1);
                match (prev_code(toks, i), path_head) {
                    (Some(p), Some(h))
                        if p.is_punct("::") && (h.is_ident("Vec") || h.is_ident("Box")) =>
                    {
                        Some("heap allocation")
                    }
                    _ => None,
                }
            }
            // `.to_vec()` / `.clone()` on anything — in a hot module the
            // owned-buffer copy is the point of the lint.
            "to_vec" | "clone"
                if matches!(prev_code(toks, i), Some(p) if p.is_punct("."))
                    && matches!(next_code(toks, i), Some(nx) if nx.is_punct("(")) =>
            {
                Some("owned-buffer copy")
            }
            _ => None,
        };
        if let Some(why) = flag {
            out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                HOT_PATH_ALLOC,
                format!(
                    "{why} in a hot-path module; use the workspace arena or justify \
                     (construction / cold path) in an allow"
                ),
            ));
        }
    }
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
