//! Lexer/directive torture for the PR-10 lints: every marker below is
//! inert — inside strings, raw strings, chars, or block comments — so
//! the whole file must scan with zero findings and zero suppressions.

pub fn torture() -> usize {
    let a = "unsafe { std::slice::from_raw_parts_mut(p, n) } // not code";
    let b = "// SAFETY: not a directive inside a string";
    let c = r##"let s = sec.gemm(&q, &k); r#" nested fence "#"##;
    /* block comment: // SAFETY: never registers here, and `unsafe fn`
       /* nested: attn-lint: allow(float-eq) — never parsed */
       is still inside the outer comment, as is softmax_rows(&scores) */
    let d = 'u'; // a char literal, not the start of `unsafe`
    let tick: &'static str = "lifetime tick must not eat this string";
    let fence = "terminators like */ and \" stay inside the literal";
    a.len() + b.len() + c.len() + d.len_utf8() + tick.len() + fence.len()
}
