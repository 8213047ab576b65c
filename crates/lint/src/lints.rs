//! The two per-file contract lints.
//!
//! Each pass walks the token stream with the [`crate::scope::Context`]
//! verdicts and produces raw findings; suppression filtering happens in
//! [`crate::scan_sources`]. Both passes skip test regions — tests may
//! compare floats exactly and call raw kernels.

use crate::lexer::{next_code, prev_code, Tok, TokKind};
use crate::parse::ParsedFile;
use crate::scope::Context;
use crate::Finding;

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
    /// Integration tests and examples: they may panic freely, but float
    /// hygiene still applies — `float-eq` only, and the file stays out of
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
