//! The per-file contract lint.
//!
//! The pass walks the token stream with the [`crate::scope::Context`]
//! verdicts and produces raw findings; suppression filtering happens in
//! [`crate::scan_sources`]. It skips test regions — tests may compare
//! floats exactly.

use crate::lexer::{prev_code, Tok, TokKind};
use crate::scope::Context;
use crate::Finding;

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
