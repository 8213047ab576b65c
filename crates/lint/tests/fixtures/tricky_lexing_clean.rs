//! Lexer torture: panic constructs, directives, and float compares
//! appear only inside strings, raw strings, chars, and nested comments —
//! nothing here may produce a finding.

/* Outer comment /* nested vec![boom] */ still commented: data.unwrap() */

pub fn tricky<'a>(src: &'a str) -> &'a str {
    let quoted = "vec![1.0, 2.0] and x == 0.0 inside a plain string";
    let raw = r#"// attn-lint: allow(float-eq) — strings are not comments; Box::new(0) "#;
    let fence = r##"nested r#"hash"# fences with .to_vec() payload"##;
    let ch = 'a';
    let not_char: &'a str = src;
    let exp = 1.0e3f32.max(2.0);
    if quoted.len() > raw.len().min(fence.len()) && exp.is_finite() {
        src
    } else {
        not_char.trim_start_matches(ch)
    }
}
